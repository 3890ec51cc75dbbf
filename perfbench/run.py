"""Benchmark of the logdiff command line, run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

NAME is q-sweep, ensemble, pipeline, or all (the three in turn).  Each
workload is a short sequence of `logdiff` commands on INI files generated
from the seed; every command runs in a fresh interpreter through child.py,
which reports its `import logdiff.cli` time and its `cli.main` time, while
this process takes wall time and peak RSS from os.wait4.  Iterations repeat
until S seconds have been spent, and each metric is the median over them.

--trace 0 prints the end-to-end metrics: wall_s, wall_par_s (commands that
list --jobs get --jobs 2), run_s, setup_s and peak_rss_mb.  --trace 1
alternates untraced and traced iterations at --jobs 1 and prints the
per-layer metrics (see tracing.py).  Every command's output is checked
(checks.py); the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Inputs, outputs of the first
iteration, spans and a run record go to .perfbench/ under the checkout.
--quick shrinks every input for the schema self-test.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
COMMAND_TIMEOUT_S = 60.0

# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END = {"wall_s": "s", "wall_par_s": "s", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Command:
    name: str        # logdiff subcommand
    args: list       # argv after the subcommand; "{it}" is the iteration directory
    expect: dict = field(default_factory=dict)

    def out(self, it):
        return self.args[self.args.index("--out") + 1].format(it=it)


@dataclass
class Workload:
    sets: list       # lists of Commands; iterations take them in turn
    inputs: dict     # file name -> INI text, written into the run directory
    params: dict     # the generated values, for the run record
    q_picks: list = field(default_factory=list)  # q_sweep.csv rows checked against mpmath


def _write_input(run_dir, name, text, inputs):
    inputs[name] = text
    return os.path.join(run_dir, name)


def q_sweep_workload(rng, run_dir, quick):
    """One q-sweep of |R| x |gamma| points: all compute in the Q quadrature."""
    inputs = {}
    text, params = gen.q_sweep_ini(rng, *((4, 3) if quick else ()))
    ini = _write_input(run_dir, "q_sweep.ini", text, inputs)
    cmd = Command("q-sweep", ["--config", ini, "--out", "{it}/q"], {"rows": params["rows"]})
    picks = sorted(rng.sample(range(params["rows"]), 1 if quick else 3))
    return Workload([[cmd]], inputs, params, picks)


def ensemble_workload(rng, run_dir, quick):
    """exact-suite, uniqueness and boundary-layer: all compute in evolve."""
    inputs = {}
    u_text, u_params = gen.uniqueness_ini(
        rng, **(dict(n_R=3, n_ramps=2, n_gamma=1, n=81, dt=1e-3) if quick else {}))
    b_text, b_params = gen.boundary_layer_ini(rng)
    u_ini = _write_input(run_dir, "uniqueness.ini", u_text, inputs)
    b_ini = _write_input(run_dir, "boundary_layer.ini", b_text, inputs)
    cmds = [
        Command("exact-suite", ["--out", "{it}/exact"]),
        Command("uniqueness", ["--config", u_ini, "--out", "{it}/uniq"], {"rows": u_params["rows"]}),
        Command("boundary-layer", ["--config", b_ini, "--out", "{it}/bl"], {"rows": b_params["rows"]}),
    ]
    return Workload([cmds], inputs, {"uniqueness": u_params, "boundary_layer": b_params})


def pipeline_workload(rng, run_dir, quick):
    """The README demo: simulate lo, simulate hi, verify lo hi.

    One seeded geometry per grid size n in {261, 321, 401}, taken in turn by
    the iterations: run time grows with n, so a run that drew a single n
    would measure the draw as much as the program.
    """
    inputs, sets, params = {}, [], []
    for n in (81,) if quick else rng.sample((261, 321, 401), 3):
        (lo_text, hi_text), p = gen.pipeline_inis(rng, n)
        lo = _write_input(run_dir, f"lo_n{n}.ini", lo_text, inputs)
        hi = _write_input(run_dir, f"hi_n{n}.ini", hi_text, inputs)
        expect = {"samples": p["samples"]}
        sets.append([
            Command("simulate", ["--config", lo, "--out", "{it}/lo"], expect),
            Command("simulate", ["--config", hi, "--out", "{it}/hi"], expect),
            Command("verify", ["{it}/lo/snap_manifest.csv", "{it}/hi/snap_manifest.csv",
                               "--config", lo, "--out", "{it}/ver"], expect),
        ])
        params.append(p)
    return Workload(sets, inputs, {"geometries": params})


WORKLOADS = {
    "q-sweep": q_sweep_workload,
    "ensemble": ensemble_workload,
    "pipeline": pipeline_workload,
}


# ------------------------------------------------------------------ processes

def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout_path, stderr_path, cwd):
    """Runs argv to completion; returns (wall seconds, peak RSS in MB, exit code).

    The child leads its own process group so that a timeout also stops any
    pool workers it started.  Peak RSS comes from wait4 and so covers the
    child and any descendants it waited for.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=_child_env(),
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _read(path):
    with open(path, errors="replace") as fh:
        return fh.read()


def _digest(dirs):
    h = hashlib.sha1()
    for d in dirs:
        for base, subdirs, files in os.walk(d):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, os.path.dirname(d)).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ------------------------------------------------------------------- the run

class Run:
    def __init__(self, name, seed, seconds, trace, quick):
        self.name, self.seed, self.seconds, self.trace, self.quick = name, seed, seconds, trace, quick
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}" + ("-quick" if quick else ""))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        rng = random.Random(f"{name}/{seed}")
        self.workload = WORKLOADS[name](rng, self.dir, quick)
        for fname, text in self.workload.inputs.items():
            with open(os.path.join(self.dir, fname), "w") as fh:
                fh.write(text)
        self.iterations = []   # one dict per iteration, in the order run
        self.checks = []       # (iteration, name, ok, detail)
        self.digests = {}      # input set -> artifact digest of its first iteration
        self.traces = []       # spans of every traced command, written by record()

    # -- set-up, outside every timed region
    def probe(self):
        """Fills the bytecode cache and asks each command whether it takes --jobs."""
        names = sorted({c.name for cmds in self.workload.sets for c in cmds})
        rec = os.path.join(self.dir, "probe.json")
        _, _, rc = spawn([sys.executable, os.path.join(HERE, "child.py"), "probe", rec, *names],
                         os.path.join(self.dir, "probe.out"), os.path.join(self.dir, "probe.err"),
                         self.dir)
        if rc != 0:
            raise SystemExit(f"perfbench: cannot start logdiff (probe exit {rc}); see "
                             f"{os.path.join(self.dir, 'probe.err')}")
        with open(rec) as fh:
            self.probed = json.load(fh)

    def import_breakdowns(self, count):
        out = []
        for i in range(count):
            err = os.path.join(self.dir, f"importtime{i}.err")
            _, _, rc = spawn([sys.executable, "-X", "importtime", "-c", "import logdiff.cli"],
                             os.devnull, err, self.dir)
            self.checks.append((None, "importtime exit 0", rc == 0, f"exit code {rc}"))
            out.append(tracing.import_breakdown(_read(err)))
        return out

    # -- one iteration: every command of the workload once
    def iterate(self, index, variant, which):
        it = os.path.join(self.dir, f"it{index:03d}")
        os.makedirs(it)
        run_id = f"{self.name}-{self.seed}-{index}" if variant == "traced" else None
        commands = self.workload.sets[which]
        cmds, traces = [], []
        for j, cmd in enumerate(commands):
            argv = [cmd.name] + [a.format(it=it) for a in cmd.args]
            if variant == "par" and self.probed["jobs"][cmd.name]:
                argv += ["--jobs", "2"]
            rec = os.path.join(it, f"cmd{j}.json")
            stdout = os.path.join(it, f"cmd{j}.out")
            wall, rss, rc = spawn(
                [sys.executable, os.path.join(HERE, "child.py"), "run", rec, run_id or "-", "--", *argv],
                stdout, os.path.join(it, f"cmd{j}.err"), self.dir)
            try:
                with open(rec) as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                record = {"import_s": 0.0, "main_s": 0.0, "rc": rc}
            code = rc if rc != 0 else record["rc"]
            for name, ok, detail in checks.check_command(cmd.name, code, _read(stdout),
                                                         cmd.out(it), cmd.expect):
                self.checks.append((index, name, ok, detail))
            if "trace" in record:
                traces.append(record["trace"])
            cmds.append({"argv": argv, "rc": code, "wall_s": wall, "rss_mb": rss,
                         "import_s": record["import_s"], "main_s": record["main_s"]})
        digest = _digest([cmd.out(it) for cmd in commands])
        if which in self.digests:
            self.checks.append((index, f"artifacts of input set {which} identical to its first run",
                                digest == self.digests[which], digest))
        else:
            self.digests[which] = digest
        entry = {"variant": variant, "input_set": which, "commands": cmds,
                 "wall_s": sum(c["wall_s"] for c in cmds),
                 "run_s": sum(c["main_s"] for c in cmds),
                 "peak_rss_mb": max(c["rss_mb"] for c in cmds)}
        if traces:
            entry["layers"] = tracing.layer_metrics(traces)
            self.traces += traces
        self.iterations.append(entry)
        if index > 0:
            shutil.rmtree(it)  # iteration 0 stays for inspection and the Q check

    def measure(self):
        """Runs iterations for self.seconds, cycling through the variants."""
        if self.trace:
            variants = ["plain", "traced"]
        elif any(self.probed["jobs"][c.name] for cmds in self.workload.sets for c in cmds):
            variants = ["plain", "par"]
        else:
            variants = ["plain"]  # no command takes --jobs: wall_par_s is wall_s
        self.variants = variants
        minimum = len(variants) * (1 if self.quick else 2)
        durations = {v: [] for v in variants}
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            variant = variants[index % len(variants)]
            expected = statistics.median(durations[variant]) if durations[variant] else 0.0
            if index >= minimum and time.perf_counter() + expected > deadline:
                break
            t0 = time.perf_counter()
            # each variant takes the input sets in turn
            self.iterate(index, variant, (index // len(variants)) % len(self.workload.sets))
            durations[variant].append(time.perf_counter() - t0)
            index += 1

    def check_q(self):
        if not self.workload.q_picks:
            return
        try:
            rows = checks.read_rows(os.path.join(self.dir, "it000", "q", "q_sweep.csv"))
        except OSError as exc:
            self.checks.append((0, "Q reference rows readable", False, str(exc)))
            return
        for name, ok, detail in checks.check_q_values(rows, self.workload.q_picks):
            self.checks.append((0, name, ok, detail))

    # -- results
    def samples(self, key, variants):
        return [it[key] for it in self.iterations if it["variant"] in variants]

    def metrics(self, imports=None):
        """name -> (median, unit, samples)."""
        if not self.trace:
            par = "par" if "par" in self.variants else "plain"
            table = {
                "wall_s": self.samples("wall_s", {"plain"}),
                "wall_par_s": self.samples("wall_s", {par}),
                "run_s": self.samples("run_s", {"plain"}),
                # every command imports logdiff.cli the same way, so each import
                # is a sample of one command's set-up
                "setup_s": [c["import_s"] * len(it["commands"])
                            for it in self.iterations for c in it["commands"]],
                "peak_rss_mb": self.samples("peak_rss_mb", {"plain"}),
            }
            units = END_TO_END
        else:
            layers = [it["layers"] for it in self.iterations if it["variant"] == "traced"]
            traced = statistics.median(self.samples("run_s", {"traced"}))
            plain = statistics.median(self.samples("run_s", {"plain"}))
            table = {}
            for name in tracing.PER_LAYER:
                if name.startswith("import."):
                    table[name] = [b[name] for b in imports]
                elif name == "trace.overhead_frac":
                    table[name] = [traced / plain - 1.0]
                else:
                    table[name] = [b[name] for b in layers]
            units = tracing.PER_LAYER
        return {k: (statistics.median(v), units[k], v) for k, v in table.items()}

    def record(self, metrics):
        rec = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "quick": self.quick,
            "machine": machine_info(self.probed["versions"]),
            "inputs": {name: hashlib.sha1(text.encode()).hexdigest()
                       for name, text in self.workload.inputs.items()},
            "params": self.workload.params,
            "accepts_jobs": self.probed["jobs"],
            "notes": {
                "peak_rss_mb": "max over the commands of a --jobs 1 iteration; "
                               "pool workers of --jobs 2 runs are not included",
                "wall_par_s": ("commands whose --help lists --jobs ran with --jobs 2"
                               if "par" in self.variants else
                               "no command lists --jobs, so the --jobs 1 runs are reused"),
            },
            "metrics": {k: {"value": v, "unit": u, "samples": len(xs)} for k, (v, u, xs) in metrics.items()},
            "iterations": self.iterations,
            "failed_checks": [c for c in self.checks if not c[2]],
            "checks": len(self.checks),
        }
        with open(os.path.join(self.dir, "record.json"), "w") as fh:
            json.dump(rec, fh, indent=1)
        if self.traces:
            with open(os.path.join(self.dir, "spans.jsonl"), "w") as fh:
                for trace in self.traces:
                    fh.write(json.dumps(trace) + "\n")

    def execute(self):
        self.probe()
        imports = self.import_breakdowns(1 if self.quick else 3) if self.trace else None
        self.measure()
        self.check_q()
        metrics = self.metrics(imports)
        self.record(metrics)
        return metrics


def machine_info(versions):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": versions.get("numpy"), "scipy": versions.get("scipy"),
            "git_rev": git_rev()}


def git_rev():
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(run, metrics):
    failed = [c for c in run.checks if not c[2]]
    counts = ", ".join(f"{v} {len(run.samples('wall_s', {v}))}" for v in run.variants)
    print(f"{run.name}: seed {run.seed}, trace {run.trace}, {len(run.iterations)} iterations "
          f"({counts}), {len(run.checks)} checks, {len(failed)} failed")
    for name, (value, unit, samples) in metrics.items():
        t = tail(samples)
        print(f"  {name:48s} {value:14.6g} {unit:6s} n={len(samples)}"
              + (f"  p{t[0]}={t[1]:.6g}" if t else ""))
    print(f"  failed_frac {len(failed) / max(len(run.checks), 1):.4g} "
          f"({len(failed)} of {len(run.checks)} commands and checks)")
    for _, name, _, detail in failed[:10]:
        print(f"  FAILED {name}: {detail}")
    print(f"  record: {os.path.relpath(os.path.join(run.dir, 'record.json'), ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one iteration per variant (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "logdiff", "cli.py")):
        print(f"perfbench: no logdiff sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(name, args.seed, args.seconds, args.trace, args.quick)
        metrics = run.execute()
        summarize(run, metrics)
        failed = sum(not c[2] for c in run.checks)
        result["attempted"] += len(run.checks)
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit, _) in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
