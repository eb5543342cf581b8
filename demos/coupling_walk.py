"""Walk through the coupling of the stationary and delayed processes: the
sign-driven difference walk, its entry into [0, epsilon), and the matched
arrivals afterwards.

Run: python demos/coupling_walk.py
"""

from renewalcluster import (
    RngStream,
    gated_cluster_preset,
    post_coupling_agreement,
    rademacher_flip_test,
    run_coupling,
)


def main():
    spec = gated_cluster_preset()
    eps = 0.1

    run = run_coupling(spec, eps, 10**7, RngStream(5))
    print(f"starts: stationary {run.start_stationary:.3f}, "
          f"delayed {run.start_delayed:.3f}")
    print(f"walk entered [0, {eps}) after tau = {run.tau} shared steps "
          f"at V_tau = {run.v_tau:.5f}")
    print(f"coupling time (later meeting epoch): {run.coupling_time:.1f}")
    print(f"plus/minus step split at tau: {run.l_tau} / {run.l_tau_delayed}")

    # after tau both processes consume the same +1-signed gaps, so their
    # arrivals stay epsilon-close with identical marks
    agree = post_coupling_agreement(spec, eps, 50, RngStream(5))
    print(f"post-coupling agreement over 50 arrivals: "
          f"max epoch gap {agree.max_gap:.5f} < {eps}, "
          f"violations {list(agree.violations)}")

    # flipping signs after a stopping time preserves the law; flipping after
    # a peek-ahead rule (argmax of partial sums) does not
    stop = rademacher_flip_test(20, 50_000, RngStream(6), rule="stopping")
    peek = rademacher_flip_test(20, 50_000, RngStream(6), rule="peek_ahead")
    print(f"stopping-time flip: KS {stop.distance:.4f} vs {stop.critical_value:.4f} "
          f"-> {'reject' if stop.reject else 'accept'}")
    print(f"peek-ahead flip:    KS {peek.distance:.4f} vs {peek.critical_value:.4f} "
          f"-> {'reject' if peek.reject else 'accept'}")


if __name__ == "__main__":
    main()
