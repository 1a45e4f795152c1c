"""Run one wssim experiment in this (fresh) interpreter and time it.

    python3 perfbench/worker.py '<json spec>'

perfbench/run.py starts one worker per experiment. The spec names the
checkout root, the config file, the field overrides, the CSV path and
whether to trace. The worker imports wssim from ``<root>/src`` and nothing
else, builds and validates the ExperimentConfig, calls run_experiment and
emit_results, and prints one JSON object as the last line of stdout. With
``"setup_only": true`` it stops after validate().

Only the standard library is imported before the setup clock starts.

Each run also times a fixed calibration kernel twice: after set-up and
after the CSV is written. perfbench/run.py divides the run's times by the
kernel's time, which takes out most of the shared machine's changes in
speed (see perfbench/README.md).
"""

import json
import resource
import sys
import time
from pathlib import Path


CALIBRATION_ITERATIONS = 1600


def calibration_kernel() -> float:
    """Seconds for a fixed mix like the simulator's per-slot work:
    interpreter work, operations on 8-element arrays, and the Gaussian
    support score of the recovery layer (a small Gram matrix, its Cholesky
    factor and a complex solve) at 4 and at 8 branches."""
    import numpy as np
    x = np.linspace(0.1, 0.9, 8)
    mixing = {k: np.cos(np.arange(k * 3.0)).reshape(k, 3) for k in (4, 8)}
    szz = {k: np.eye(k) * 64.0 + 1j * np.tri(k) for k in (4, 8)}
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        y = x * 0.5 + 0.25
        top = (-y).argsort(kind="stable")[:4]
        top.sort()
        acc += float(y[top].sum())
        x = np.where(x > 0.5, x - 0.1, x + 0.1)
        k = 4 if i % 2 else 8
        a_s = mixing[k]
        phi = 0.01 * np.eye(k) + a_s @ a_s.T
        chol = np.linalg.cholesky(phi)
        acc += 2.0 * float(np.log(np.diag(chol)).sum())
        acc += float(np.trace(np.linalg.solve(phi, szz[k])).real)
    return time.perf_counter() - start


def main(argv) -> int:
    spec = json.loads(argv[1])
    src = Path(spec["root"], "src").resolve()
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import wssim
    imported = time.perf_counter()
    if Path(wssim.__file__).resolve().parent.parent != src:
        raise ImportError(f"wssim came from {wssim.__file__}, not {src}")
    cfg = wssim.load_config(Path(spec["root"], spec["config"]))
    for key, value in spec["overrides"].items():
        setattr(cfg, key, value)
    cfg.validate()
    ready = time.perf_counter()

    out = {"import_s": imported - start, "setup_s": ready - start,
           "replications": cfg.replications, "horizon": cfg.horizon,
           "policies": list(cfg.policies), "rs_mode": cfg.rs_mode,
           "versions": {name: getattr(sys.modules.get(name), "__version__", None)
                        for name in ("numpy", "scipy")},
           "calibration_s": [calibration_kernel()]}
    if not spec.get("setup_only"):
        tracer = None
        if spec["traced"]:
            import tracing
            tracer = tracing.Tracer(cfg.k_branches).install(wssim)
        t0 = time.perf_counter()
        series = wssim.run_experiment(cfg)
        t1 = time.perf_counter()
        wssim.emit_results(series, spec["csv"])
        t2 = time.perf_counter()
        out["emitted_at"] = time.time()
        out["run_s"] = t1 - t0
        out["emit_s"] = t2 - t1
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.raw()
        out["calibration_s"].append(calibration_kernel())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mib"] = usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
