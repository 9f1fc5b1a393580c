"""Every metric the benchmark reports, with its unit.  BENCHMARK.json lists
the same names; selftest.py checks that the two agree."""

# Untraced runs.  wall_cal is the timed section in units of the host probe
# sampled inside it (see host.py); setup_s runs from the child's spawn until
# imports and inputs are done, scaled to a nominal probe speed; peak_rss_mb
# is the child's own peak.
END_TO_END = [("wall_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def _layer(function, *stats):
    units = {"busy_s": "s", "calls": "count", "repeat_share": "fraction"}
    return [(f"{function}.{stat}", units.get(stat, "count")) for stat in stats]


# Traced runs: <module>.<function>.<stat>.  busy_s is the summed time of the
# benchmark's calls into that function, calls their number, repeat_share the
# share of calls whose arguments were already passed earlier in the same
# repetition; any other stat is a work count.  A layer that a workload does
# not call reads 0 there.
LAYER_METRICS = [
    *_layer("qo.all_quasi_orders", "busy_s"),
    *_layer("qo.all_downsets_of_poset", "busy_s", "sets"),
    *_layer("downsets.enumerate_downsets", "busy_s"),
    *_layer("downsets.downset_product", "busy_s", "calls"),
    *_layer("downsets.product_decomposition", "busy_s", "calls"),
    *_layer("monoid.check_axioms", "busy_s"),
    *_layer("monoid.check_plus_property", "busy_s"),
    *_layer("monoid.prime_factorization", "busy_s", "calls"),
    *_layer("monoid.ideal_monoid", "busy_s"),
    *_layer("higman.dp_agreement_sweep", "busy_s"),
    *_layer("higman.leq_H", "busy_s", "calls"),
    *_layer("higman.leq_H_bruteforce", "busy_s", "calls"),
    *_layer("higman.hword_primes_check", "busy_s"),
    *_layer("higman.bounded_word_monoid", "busy_s"),
    *_layer("hierarchy.build_atoms", "busy_s", "atoms"),
    *_layer("hierarchy.compare_atoms", "busy_s", "calls"),
    *_layer("hierarchy.build_level", "busy_s", "members"),
    *_layer("hierarchy.lesssim_star", "busy_s", "calls", "repeat_share"),
    *_layer("hierarchy.hset_mult", "busy_s", "calls", "repeat_share"),
    *_layer("reflect.build_reflection", "busy_s"),
    *_layer("reflect.verify_reflection", "busy_s", "pairs"),
    *_layer("oracle.check_xy_wz", "busy_s"),
    *_layer("oracle.check_containment_agreement", "busy_s"),
    *_layer("oracle.check_two_forms", "busy_s"),
    *_layer("oracle.DenotationContext.word_mask", "busy_s", "calls"),
    *_layer("oracle.DenotationContext.product", "busy_s", "calls"),
]

# What tracing costs: the tracer's own time in a traced repetition, every
# traced call times the wrapper's cost on a no-op (tracer.overhead_ns).
OVERHEAD = ("trace.overhead_s", "s")

PER_LAYER = [*LAYER_METRICS, OVERHEAD]

REPEAT_TRACKED = [
    name.rpartition(".")[0] for name, _ in LAYER_METRICS if name.endswith(".repeat_share")
]
