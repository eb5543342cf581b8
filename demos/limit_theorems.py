"""Monte Carlo checks of the long-run limits: window means, void
probabilities and the key renewal theorem.

Run: python demos/limit_theorems.py
"""

from renewalcluster import (
    Exponential,
    PoissonCount,
    StepFunction,
    bartlett_lewis_preset,
    bartlett_lewis_void_probability,
    estimate_key_renewal,
    estimate_void_probability,
    estimate_window_mean,
    gated_cluster_preset,
    stream_for,
)


def main():
    gated = gated_cluster_preset()
    rep = estimate_window_mean(gated, 200.0, 1.0, 4000, stream_for(0, "demo-window"))
    print(f"window mean at t=200: {rep.estimate:.4f} +- {rep.std_error:.4f} "
          f"(limit {rep.target})")

    bl = bartlett_lewis_preset(1.0, PoissonCount(1.0), Exponential(1.0))
    void = estimate_void_probability(bl, 100.0, 1.0, 20_000, stream_for(0, "demo-void"))
    closed = bartlett_lewis_void_probability(1.0, 1.0, Exponential(1.0), 1.0)
    print(f"void probability: empirical {void.estimate:.4f}, closed form {closed:.5f}")

    # sum of g(t - y) over the points y against its key-renewal limit
    g = StepFunction(((0.0, 1.0, 1.0), (2.0, 4.0, 0.5)))
    key = estimate_key_renewal(gated, 200.0, g, 10_000, stream_for(0, "demo-renewal"))
    print(f"key renewal sum at t=200: {key.estimate:.4f} +- {key.std_error:.4f} "
          f"(limit {key.target:.4f})")


if __name__ == "__main__":
    main()
