"""Per-layer tracer for a wssim experiment, installed from outside ``src/``.

A traced run replaces the layers' public functions *as they are bound in
the module that calls them* (``run_policy`` looks up
``wssim.learning.propagate_belief`` at call time, ``signal_sense`` looks up
``wssim.recovery.fbmp_recover``, and so on) with timing wrappers. Nothing
under ``src/`` changes, and an untraced run executes the program untouched.
The wrappers draw no random numbers and hand back the wrapped result as is,
so a traced run must write the same CSV bytes as an untraced one; the
benchmark checks that.

Spans are aggregated as they close instead of being stored: per span name
the call count, the total time and the part of it covered by wrapped
callees, so self time = total - child. A 10,000-slot replication closes
about 10^5 spans, too many to keep one record each.

A name missing from the program is listed in ``absent`` and its metrics
read 0, so the benchmark keeps working when a later change removes a
per-slot call.
"""

from __future__ import annotations

import functools
import time

# (module the caller looks the name up in, attribute, span name). The span
# name is the defining module and function, whichever module binds it.
FUNCTIONS = (
    ("experiments", "run_replication", "experiments.run_replication"),
    ("experiments", "simulate_occupancy", "spectrum.simulate_occupancy"),
    ("experiments", "draw_sensing_matrix", "sensing.draw_sensing_matrix"),
    ("experiments", "run_policy", "learning.run_policy"),
    ("experiments", "synthesize_band_spectra", "spectrum.synthesize_band_spectra"),
    ("experiments", "measure", "sensing.measure"),
    ("experiments", "signal_sense", "recovery.signal_sense"),
    ("learning", "propagate_belief", "learning.propagate_belief"),
    ("learning", "exploit_select", "learning.exploit_select"),
    ("learning", "update_counts", "learning.update_counts"),
    ("learning", "optimize_size", "sizing.optimize_size"),
    ("learning", "oracle_sense", "recovery.oracle_sense"),
    ("recovery", "direct_solve", "recovery.direct_solve"),
    ("recovery", "fbmp_recover", "recovery.fbmp_recover"),
    ("recovery", "energy_detect", "recovery.energy_detect"),
)

# Sensing backends: the boundary between the policy loop and sensing.
SENSE_METHODS = (
    ("experiments", "SignalEnvironment", "experiments.SignalEnvironment.sense"),
    ("learning", "OracleEnvironment", "learning.OracleEnvironment.sense"),
)


class Tracer:
    """Timing wrappers plus counts taken from the wrapped calls' results."""

    def __init__(self, k_branches: int):
        self.k_branches = k_branches
        self.spans: dict[str, list[int]] = {}   # name -> [calls, total_ns, child_ns]
        self.rep_seconds: list[float] = []
        self.policy_slots = 0
        self.xi_failures = 0
        # Signal-mode sensing against the ground-truth trajectory.
        self.signal = {"slots": 0, "xi_agree": 0, "vacant": 0, "busy": 0,
                       "false_alarms": 0, "misses": 0}
        self.absent: list[str] = []
        self._stack: list[int] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self._oracle_sense = None

    def _wrap(self, name, fn, on_result=None):
        record = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += child
            if on_result is not None:
                on_result(args, result, elapsed)
            if stack:
                # Everything from `start` on, this span's bookkeeping
                # included, is excluded from the caller's self time.
                stack[-1] += clock() - start
            return result
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package) -> "Tracer":
        """Wrap the names listed in FUNCTIONS and SENSE_METHODS in `package`."""
        recovery = getattr(package, "recovery", None)
        self._oracle_sense = getattr(recovery, "oracle_sense", None)
        hooks = {"experiments.run_replication": self._on_replication,
                 "learning.run_policy": self._on_policy}
        for module_name, attr, name in FUNCTIONS:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._patch(module, attr, self._wrap(name, fn, hooks.get(name)))
        for module_name, cls_name, name in SENSE_METHODS:
            cls = getattr(getattr(package, module_name, None), cls_name, None)
            fn = getattr(cls, "sense", None)
            if fn is None:
                self.absent.append(name)
                continue
            hook = self._on_signal_sense if cls_name == "SignalEnvironment" else None
            self._patch(cls, "sense", self._wrap(name, fn, hook))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _on_replication(self, args, result, elapsed_ns):
        self.rep_seconds.append(elapsed_ns * 1e-9)

    def _on_policy(self, args, outcomes, elapsed_ns):
        self.policy_slots += len(outcomes)
        self.xi_failures += sum(o.xi for o in outcomes)

    def _on_signal_sense(self, args, result, elapsed_ns):
        env, selected, slot = args[0], args[1], args[2]
        truth = env.trajectory[slot, selected]
        expected = self._oracle_sense(truth, self.k_branches).xi
        statuses = result.statuses
        s = self.signal
        s["slots"] += 1
        s["xi_agree"] += int(result.xi == expected)
        n_busy = int(truth.sum())
        s["busy"] += n_busy
        s["vacant"] += truth.size - n_busy
        s["false_alarms"] += int(((statuses == 1) & (truth == 0)).sum())
        s["misses"] += int(((statuses == 0) & (truth == 1)).sum())

    def raw(self) -> dict:
        """Plain-data snapshot, JSON-serialisable."""
        return {"spans": self.spans, "rep_seconds": self.rep_seconds,
                "policy_slots": self.policy_slots,
                "xi_failures": self.xi_failures, "signal": self.signal,
                "absent": self.absent}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def xi_agreement(raw: dict, rs_mode: str) -> float:
    """Share of signal-mode slots whose xi equals oracle_sense on the truth.

    In oracle mode the sensing layer is oracle_sense itself, so the share
    is 1 by definition.
    """
    if rs_mode != "signal":
        return 1.0
    sig = raw["signal"]
    return _ratio(sig["xi_agree"], sig["slots"])


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name.

    Replication times are left out: the benchmark pools them over runs.
    """
    spans = raw["spans"]

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def per_call(name, unit_ns):
        n, total, _ = spans.get(name, (0, 0, 0))
        return _ratio(total, n) / unit_ns

    def self_time(name):
        _, total, child = spans.get(name, (0, 0, 0))
        return total - child

    slots = raw["policy_slots"]
    sig = raw["signal"]
    return {
        "learning.run_policy.self_us_per_slot":
            _ratio(self_time("learning.run_policy"), slots) / 1e3,
        "learning.propagate_belief.us_per_call":
            per_call("learning.propagate_belief", 1e3),
        "learning.exploit_select.us_per_call":
            per_call("learning.exploit_select", 1e3),
        "learning.update_counts.calls": calls("learning.update_counts"),
        "learning.update_counts.us_per_call":
            per_call("learning.update_counts", 1e3),
        "learning.obs_per_slot": _ratio(calls("learning.update_counts"), slots),
        "recovery.oracle_sense.us_per_call":
            per_call("recovery.oracle_sense", 1e3),
        "spectrum.simulate_occupancy.ms_per_call":
            per_call("spectrum.simulate_occupancy", 1e6),
        "sizing.optimize_size.calls": calls("sizing.optimize_size"),
        "sizing.optimize_size.us_per_call": per_call("sizing.optimize_size", 1e3),
        "spectrum.synthesize_band_spectra.us_per_call":
            per_call("spectrum.synthesize_band_spectra", 1e3),
        "sensing.measure.us_per_call": per_call("sensing.measure", 1e3),
        "recovery.signal_sense.self_us_per_call":
            _ratio(self_time("recovery.signal_sense"),
                   calls("recovery.signal_sense")) / 1e3,
        "recovery.fbmp_recover.calls": calls("recovery.fbmp_recover"),
        "recovery.fbmp_recover.us_per_call": per_call("recovery.fbmp_recover", 1e3),
        "recovery.direct_solve.us_per_call": per_call("recovery.direct_solve", 1e3),
        "recovery.energy_detect.us_per_call":
            per_call("recovery.energy_detect", 1e3),
        "recovery.search_share": _ratio(calls("recovery.fbmp_recover"),
                                        calls("recovery.signal_sense")),
        "recovery.xi_fail_rate": _ratio(raw["xi_failures"], slots),
        "recovery.false_alarm_rate": _ratio(sig["false_alarms"], sig["vacant"]),
        "recovery.miss_rate": _ratio(sig["misses"], sig["busy"]),
        "sensing.draw_sensing_matrix.us_per_call":
            per_call("sensing.draw_sensing_matrix", 1e3),
    }
