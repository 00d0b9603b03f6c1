"""Where the tracer hooks into pendavg, and the per-layer metrics it yields.

Each wrapper replaces a name where its caller looks it up (``pendavg.cli.
find_zeros`` for the CLI's call, ``AveragedSystem.eval_many`` on the class,
the callables ``compiled_forcing`` hands to ``averaging`` and
``continuation``), so pendavg itself is unchanged and every original is put
back on exit.  Layers are pendavg's modules: ``expr``, ``model``,
``averaging``, ``continuation``, ``cli`` (with ``config``) and
``reporting``; ``bench`` is this harness's own glue inside an op.
"""

from __future__ import annotations

import contextlib

import numpy as np

# (name, unit, better, what it should move).  Per-op values are averages
# over the traced ops.  The ``moves`` text is the prediction a change to
# that layer is judged against; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("expr.parse_calls", "calls/op", "lower", "setup_s; op_s_p50 on search, slightly"),
    ("expr.compile_calls", "calls/op", "lower", "setup_s"),
    ("expr.compile_misses", "calls/op", "lower", "setup_s"),
    ("expr.eval_calls", "calls/op", "lower", "ops_per_s on search and shoot (tiny arrays)"),
    ("expr.eval_points", "points/op", "lower", "ops_per_s on grid (bulk arrays)"),
    ("expr.points_per_eval", "points/call", "higher", "ops_per_s on search and shoot (tiny arrays)"),
    ("expr.eval_s", "s/op", "lower", "ops_per_s on all three workloads"),
    ("model.spec_calls", "calls/op", "lower", "op_s_p50 on search and grid"),
    ("model.spec_s", "s/op", "lower", "op_s_p50 on search and grid"),
    ("model.orbit_calls", "calls/op", "lower", "op_s_p50 on search and grid"),
    ("model.orbit_s", "s/op", "lower", "op_s_p50 on search and grid"),
    ("averaging.eval_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.eval_points", "points/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.points_per_eval", "points/call", "higher", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.eval_self_s", "s/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.panels_mean", "panels", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.newton_evals", "calls/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.jacobian_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.probe_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.search_s", "s/op", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("averaging.zeros_found", "zeros/op", "higher", "none: fixed by the closed form; the base of evals_per_zero"),
    ("averaging.evals_per_zero", "calls/zero", "lower", "ops_per_s and op_s_p50 on search; ops_per_s and peak_rss_mb on grid; 0 on shoot"),
    ("continuation.verify_s", "s/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.shoot_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.shoot_iterations", "iters/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.flow_map_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.flow_map_cols", "cols/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.flow_map_s", "s/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.rhs_evals", "calls/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.sample_states_calls", "calls/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("continuation.sample_states_s", "s/op", "lower", "ops_per_s and op_s_p50 on shoot; 0 on search and grid"),
    ("cli.config_s", "s/op", "lower", "op_s_p50 on search, slightly"),
    ("reporting.json_s", "s/op", "lower", "op_s_p50 on search, slightly"),
    ("reporting.report_bytes", "bytes/op", "lower", "op_s_p50 on search, slightly"),
    ("expr.self_share", "%", "lower", "share of traced op time in expr"),
    ("model.self_share", "%", "lower", "share of traced op time in model"),
    ("averaging.self_share", "%", "lower", "share of traced op time in averaging; largest on search"),
    ("continuation.self_share", "%", "lower", "share of traced op time in continuation; largest on shoot"),
    ("cli.self_share", "%", "lower", "share of traced op time in cli and config"),
    ("reporting.self_share", "%", "lower", "share of traced op time in reporting"),
    ("trace.spans", "spans/op", "lower", "none: the tracer's own cost"),
    ("trace.overhead_s", "s/op", "lower", "none: traced minus untraced wall time of the same ops"),
    ("trace.overhead_frac", "%", "lower", "none: trace.overhead_s over the untraced wall time"),
]

LAYERS = ("expr", "model", "averaging", "continuation", "cli", "reporting")


def _rows(alphas):
    return int(np.asarray(alphas).reshape(-1, 2).shape[0])


def _points(args):
    return max(int(np.size(a)) for a in args)


class _Patcher:
    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _counted(tracer, name, fn):
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def _traced_forcing(tracer, compiled_forcing, rhs_counter=None):
    """Wrap the (F1, F2) pair that ``compiled_forcing`` returns as expr leaves."""

    def note(t, args, kwargs):
        t.count("expr.eval_points", _points(args))

    def note_f1(t, args, kwargs):
        note(t, args, kwargs)
        t.count(rhs_counter)

    def traced(spec):
        f1, f2 = compiled_forcing(spec)
        return (
            tracer.wrap_leaf("expr.eval", f1, note_f1 if rhs_counter else note),
            tracer.wrap_leaf("expr.eval", f2, note),
        )

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Install the wrappers for the duration of the block."""
    import pendavg.averaging as averaging
    import pendavg.cli as cli
    import pendavg.config as config
    import pendavg.continuation as continuation
    import pendavg.model as model
    from pendavg.averaging import AveragedSystem
    from pendavg.model import PerturbationSpec

    def note_eval_many(t, args, kwargs, result):
        t.count("averaging.eval_points", _rows(args[1]))
        t.count("averaging.panels", args[0].last_panels)

    patch = _Patcher()
    try:
        patch.set(cli, "main", tracer.wrap("cli.main", cli.main))
        patch.set(cli, "_config_from_args", tracer.wrap("cli.config", cli._config_from_args))
        patch.set(
            cli,
            "json_dumps",
            tracer.wrap(
                "reporting.json",
                cli.json_dumps,
                lambda t, a, k, r: t.count("reporting.report_bytes", len(r.encode("utf-8"))),
            ),
        )
        patch.set(
            cli,
            "find_zeros",
            tracer.wrap(
                "averaging.find_zeros",
                cli.find_zeros,
                lambda t, a, k, r: t.count("averaging.zeros_found", len(r)),
            ),
        )
        patch.set(cli, "antipodal_pairing", tracer.wrap("averaging.pairing", cli.antipodal_pairing))
        for owner in (cli, averaging):
            patch.set(owner, "is_identically_zero", tracer.wrap("averaging.probe", owner.is_identically_zero))
        patch.set(AveragedSystem, "eval_many", tracer.wrap("averaging.eval_many", AveragedSystem.eval_many, note_eval_many))
        patch.set(AveragedSystem, "__call__", _counted(tracer, "averaging.newton_evals", AveragedSystem.__call__))
        patch.set(AveragedSystem, "jacobian", _counted(tracer, "averaging.jacobian_calls", AveragedSystem.jacobian))

        from_strings = PerturbationSpec.__dict__["from_strings"].__func__
        patch.set(PerturbationSpec, "from_strings", classmethod(tracer.wrap("model.spec", from_strings)))
        for owner in (model, config):
            patch.set(owner, "parse", tracer.wrap_leaf("expr.parse", owner.parse))
        patch.set(model, "compile_expr", _counted(tracer, "expr.compile_calls", model.compile_expr))
        for owner in (averaging, continuation):
            patch.set(owner, "unperturbed_orbit", tracer.wrap_leaf("model.orbit", owner.unperturbed_orbit))
        patch.set(averaging, "compiled_forcing", _traced_forcing(tracer, averaging.compiled_forcing))
        patch.set(
            continuation,
            "compiled_forcing",
            _traced_forcing(tracer, continuation.compiled_forcing, "continuation.rhs_evals"),
        )

        patch.set(continuation, "verify_zero", tracer.wrap("continuation.verify", continuation.verify_zero))
        patch.set(
            continuation,
            "shoot_periodic",
            tracer.wrap(
                "continuation.shoot",
                continuation.shoot_periodic,
                lambda t, a, k, r: t.count("continuation.shoot_iterations", r.iterations),
            ),
        )
        patch.set(
            continuation,
            "flow_map",
            tracer.wrap(
                "continuation.flow_map",
                continuation.flow_map,
                lambda t, a, k, r: t.count("continuation.flow_map_cols", int(np.asarray(a[2]).reshape(4, -1).shape[1])),
            ),
        )
        patch.set(continuation, "sample_states", tracer.wrap("continuation.sample_states", continuation.sample_states))
        yield tracer
    finally:
        patch.restore()


def layer_metrics(tracer, n_ops, compile_misses, traced_s, untraced_s):
    """Every PER_LAYER value from one traced pass of ``n_ops`` ops."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    eval_calls = calls("averaging.eval_many")
    zeros = counts["averaging.zeros_found"]
    per_op = {
        "expr.parse_calls": calls("expr.parse"),
        "expr.compile_calls": counts["expr.compile_calls"],
        "expr.compile_misses": compile_misses,
        "expr.eval_calls": calls("expr.eval"),
        "expr.eval_points": counts["expr.eval_points"],
        "expr.eval_s": total_s("expr.eval"),
        "model.spec_calls": calls("model.spec"),
        "model.spec_s": total_s("model.spec"),
        "model.orbit_calls": calls("model.orbit"),
        "model.orbit_s": total_s("model.orbit"),
        "averaging.eval_calls": eval_calls,
        "averaging.eval_points": counts["averaging.eval_points"],
        "averaging.eval_self_s": self_s("averaging.eval_many"),
        "averaging.newton_evals": counts["averaging.newton_evals"],
        "averaging.jacobian_calls": counts["averaging.jacobian_calls"],
        "averaging.probe_calls": calls("averaging.probe"),
        "averaging.search_s": total_s("averaging.find_zeros"),
        "averaging.zeros_found": zeros,
        "continuation.verify_s": total_s("continuation.verify"),
        "continuation.shoot_calls": calls("continuation.shoot"),
        "continuation.shoot_iterations": counts["continuation.shoot_iterations"],
        "continuation.flow_map_calls": calls("continuation.flow_map"),
        "continuation.flow_map_cols": counts["continuation.flow_map_cols"],
        "continuation.flow_map_s": total_s("continuation.flow_map"),
        "continuation.rhs_evals": counts["continuation.rhs_evals"],
        "continuation.sample_states_calls": calls("continuation.sample_states"),
        "continuation.sample_states_s": total_s("continuation.sample_states"),
        "cli.config_s": total_s("cli.config"),
        "reporting.json_s": total_s("reporting.json"),
        "reporting.report_bytes": counts["reporting.report_bytes"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced_s - untraced_s,
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["expr.points_per_eval"] = ratio(counts["expr.eval_points"], calls("expr.eval"))
    out["averaging.points_per_eval"] = ratio(counts["averaging.eval_points"], eval_calls)
    out["averaging.panels_mean"] = ratio(counts["averaging.panels"], eval_calls)
    out["averaging.evals_per_zero"] = ratio(eval_calls, zeros)
    out["trace.overhead_frac"] = 100.0 * ratio(traced_s - untraced_s, untraced_s)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, seconds) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_share"] = 100.0 * ratio(seconds, traced_s)
    return out
