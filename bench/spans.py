"""Spans around calls into swiptsched's public functions, for the traced run.

install() replaces every module attribute of the package that is bound to a
traced function, including the names other modules bound by
``from ... import``, with a timing wrapper; uninstall() puts every
original back. Spans stay in memory until the run ends. Calls that happen
hundreds of thousands of times per round (densities, distribution
functions, Marcum Q, E1) are aggregated instead of stored: they keep
counts, inclusive time and self time, but no span of their own.

Self time of a call is its duration minus the time its traced children
cover. Wrappers time nothing while the tracer is paused, so the benchmark's
own checks never count towards a layer.
"""

import json
import sys
import time

_perf = time.perf_counter

# (module, attribute, layer); several attributes may share one layer, and a
# call of a layer from inside the same layer (normalized_cdf -> cdf_gain)
# counts once
TRACED = (
    ("swiptsched.specfun", "integrate_semi_infinite", "specfun.quad"),
    ("swiptsched.specfun", "marcum_q1", "specfun.marcum"),
    ("swiptsched.specfun", "exp_integral_e1", "specfun.e1"),
    ("swiptsched.specfun", "exp_integral_e1_scaled", "specfun.e1"),
    ("swiptsched.channel", "pdf_gain", "channel.pdf"),
    ("swiptsched.channel", "normalized_pdf", "channel.pdf"),
    ("swiptsched.channel", "cdf_gain", "channel.cdf"),
    ("swiptsched.channel", "normalized_cdf", "channel.cdf"),
    ("swiptsched.channel", "sample_gains", "channel.sample"),
    ("swiptsched.channel", "sample_gain", "channel.sample"),
    ("swiptsched.orderstats", "ordered_pdf", "orderstats.pdf"),
    ("swiptsched.orderstats", "expected_ordered_gain", "orderstats.expect"),
    ("swiptsched.analytic", "full_access_capacity", "analytic.capacity"),
    ("swiptsched.analytic", "nsnr_capacity", "analytic.capacity"),
    ("swiptsched.analytic", "et_probabilities", "analytic.et"),
    ("swiptsched.analytic", "et_throughput", "analytic.et"),
    ("swiptsched.analytic", "et_harvest", "analytic.et"),
    ("swiptsched.analytic", "et_feasibility", "analytic.feasibility"),
    ("swiptsched.analytic", "et_feasibility_exhaustive", "analytic.feasibility"),
    ("swiptsched.analytic", "et_analysis", "analytic.et_analysis"),
    ("swiptsched.analytic", "rr_analysis", "analytic.rr_analysis"),
    ("swiptsched.analytic", "nsnr_analysis", "analytic.nsnr_analysis"),
    ("swiptsched.sim", "run", "sim.run"),
    ("swiptsched.cli", "parse_config", "cli.parse"),
    ("swiptsched.cli", "run_sweep", "cli.sweep"),
    ("swiptsched.cli", "write_csv", "cli.emit"),
    ("swiptsched.cli", "main", "cli.main"),
)
AGGREGATED = frozenset(
    {"specfun.marcum", "specfun.e1", "channel.pdf", "channel.cdf", "orderstats.pdf"}
)
_POLICY_KIND = {"RoundRobin": "rr", "OrderNSNR": "nsnr", "OrderET": "et"}


def _bind(names, args, kwargs):
    call = dict(zip(names, args))
    call.update(kwargs)
    return call


def package_modules():
    """The loaded swiptsched modules, package first."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "swiptsched" or name.startswith("swiptsched."))
    ]


def package_caches(module):
    """The functools caches a module defines."""
    return [
        obj
        for obj in list(vars(module).values())
        if callable(getattr(obj, "cache_info", None))
        and getattr(obj, "__module__", None) == module.__name__
    ]


def cache_counts(module_name):
    """(hits, misses) summed over the functools caches defined in a module."""
    module = sys.modules.get(module_name)
    infos = [c.cache_info() for c in package_caches(module)] if module else []
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class Tracer:
    """Records spans and per-layer counters while active."""

    def __init__(self):
        self.active = False
        self.point = None
        self.spans = []  # (name, start, end, parent span index or -1, point id)
        self.stats = {}  # layer -> [calls, inclusive s, self s, errors]
        self.counters = {}
        self.by_policy = {}  # policy kind -> [self s, slots]
        self._stack = []  # [layer, child s, span index of nearest stored ancestor]
        self._draws = {}  # (seed, n_users) -> most slots drawn, this round
        self.distinct_gains = 0
        self.integrand_evals = [0]
        self._patched = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever the package binds it."""
        wrappers = {}
        for module_name, attr, layer in TRACED:
            module = sys.modules.get(module_name)
            orig = getattr(module, attr, None) if module else None
            if callable(orig) and id(orig) not in wrappers:
                wrappers[id(orig)] = (orig, self._wrap(orig, layer))
        for module in package_modules():
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, value))

    def uninstall(self):
        """Put every patched attribute back."""
        while self._patched:
            module, name, orig = self._patched.pop()
            setattr(module, name, orig)

    # -- rounds -----------------------------------------------------------

    def begin_round(self):
        self._draws = {}
        self.active = True

    def end_round(self):
        self.active = False
        self.distinct_gains += sum(n * slots for (_, n), slots in self._draws.items())

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, orig, layer):
        stack = self._stack
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
        store = layer not in AGGREGATED
        pre = getattr(self, "_pre_" + layer.replace(".", "_"), None)
        post = getattr(self, "_post_" + layer.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == layer):
                return orig(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            parent = stack[-1][2] if stack else -1
            spans = tracer.spans
            if store:
                index = len(spans)
                spans.append(None)  # filled on exit; children come after it
            else:
                index = parent
            frame = [layer, 0.0, index]
            stack.append(frame)
            start = _perf()
            try:
                result = orig(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                end = _perf()
                stack.pop()
                dt = end - start
                self_dt = dt - frame[1]
                stats[0] += 1
                stats[1] += dt
                stats[2] += self_dt
                if stack:
                    stack[-1][1] += dt
                if store:
                    spans[index] = (layer, start, end, parent, tracer.point)
            if post is not None:
                post(args, kwargs, result, self_dt)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", layer)
        return wrapper

    def _pre_specfun_quad(self, args, kwargs):
        # count integrand evaluations by wrapping the integrand
        f = args[0]
        evals = self.integrand_evals

        def counted(x):
            evals[0] += 1
            return f(x)

        return (counted,) + args[1:], kwargs

    def _pre_channel_sample(self, args, kwargs):
        size = _bind(("params", "rng", "size"), args, kwargs).get("size")
        self.add("gains_drawn", 1 if size is None else int(size))
        return args, kwargs

    def _pre_sim_run(self, args, kwargs):
        call = _bind(("scenario", "policy", "config"), args, kwargs)
        key = (call["config"].seed, call["scenario"].n_users)
        self._draws[key] = max(self._draws.get(key, 0), call["config"].n_slots)
        return args, kwargs

    def _post_sim_run(self, args, kwargs, result, self_dt):
        call = _bind(("scenario", "policy", "config"), args, kwargs)
        kind = _POLICY_KIND.get(type(call["policy"]).__name__, "other")
        acc = self.by_policy.setdefault(kind, [0.0, 0])
        acc[0] += self_dt
        acc[1] += call["config"].n_slots

    def _post_cli_sweep(self, args, kwargs, result, self_dt):
        self.add("sweep_points", len({(r["scheme"], r["param"]) for r in result}))

    def _pre_cli_emit(self, args, kwargs):
        rows = _bind(("stream", "scenario", "rows"), args, kwargs)["rows"]
        self.add("rows_out", len(rows))
        return args, kwargs

    # -- output -----------------------------------------------------------

    def layer(self, name):
        """[calls, inclusive s, self s, errors] of a layer (zeros if unused)."""
        return self.stats.get(name, [0, 0.0, 0.0, 0])

    def dump(self, path):
        """Write the stored spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, point in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "point": point}
                    )
                    + "\n"
                )
