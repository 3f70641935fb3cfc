"""Desk-scale exhaustive checks of the optimality claims, in exact arithmetic.

Two stories, both computed with rational arithmetic over the full
observation tree:

1. For a homogeneous three-stream Bernoulli instance over four steps, the
   one-step rule's expected stream utilization equals the supremum over
   every procedure that keeps the retained posterior mean within budget,
   at every time point -- and the same holds for the pre-change run length
   and the active count.  The "proposed" column is the shipped
   ``one_step_rule`` itself, fed the float images of the exact posteriors
   at every node of the tree; only the values are rational.  The
   keep-under-budget baseline falls short from t=2 on, so the match is not
   a property of every feasible rule.

2. For a four-stream instance with conflicting finite priors, the best
   achievable utilization at time 2 and at time 4 require incompatible
   first selections, so no procedure is uniformly optimal there.
"""

from fractions import Fraction

from streamgate import conflicting_priors_enumeration, dp_optimality_report

rows = dp_optimality_report(theta=Fraction(3, 10), p0=Fraction(1, 5),
                            p1=Fraction(4, 5), alpha=Fraction(3, 10),
                            n_streams=3, horizon=4)
print("homogeneous instance (3 streams, Bernoulli 0.2 -> 0.8, budget 0.3),")
print("expected utilization:")
print("  t   supremum   proposed   switch@1   baseline")
for r in rows:
    print(f"  {r.t}   {float(r.util_supremum):>8.4f}   {float(r.util_proposed):>8.4f}"
          f"   {float(r.util_switch_after_one):>8.4f}   {float(r.util_baseline):>8.4f}")
    assert r.util_proposed == r.util_supremum
    assert r.runlength_proposed == r.runlength_supremum
    assert r.expected_active_proposed == r.max_expected_active
assert any(r.util_baseline < r.util_supremum for r in rows)
print("  proposed == supremum exactly at every t (utilization, run length, active);")
print("  the baseline falls short\n")

rep = conflicting_priors_enumeration()
print("conflicting-priors instance (4 heterogeneous Bernoulli streams):")
print(f"  best expected utilization at t=2: {rep.util_sup_t2} "
      f"(first retention {rep.optimal_first_retention_t2})")
print(f"  best expected utilization at t=4: {rep.util_sup_t4} "
      f"(first retention {rep.optimal_first_retention_t4})")
print(f"  best t=4 value among t=2-optimal procedures: "
      f"{rep.util_t4_among_t2_optimal}")
print(f"  one procedure can attain both: {rep.jointly_attainable}")
print(f"  the one-step rule gets {rep.util_t2_proposed} at t=2 "
      f"but only {rep.util_t4_proposed} at t=4")
