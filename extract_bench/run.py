"""Extraction benchmark entry point.

    python3 extract_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. This process imports neither Ray nor the
program: it starts ``worker.py`` in a child process, reads the child's
protocol lines, enforces a deadline on every operation, samples the
summed RSS of its whole process tree, reaps every process the run
started (it is the tree's child subreaper, so Ray workers orphaned by a
kill stay its descendants) and prints one JSON result as the last line
of stdout, after all of them have ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
HARD_LIMIT_S = 170.0  # the whole run, from process start
SETUP_DEADLINE_S = 90.0
KEEP_INPUT_SETS = 40
KEEP_LOGS = 30

END_TO_END = {
    "setup_s": "s",
    "extract.docs_per_s": "docs/s",
    "resume_s": "s",
    "q.events_sessionize_s": "s",
    "q.docs_minhash_near_dup_s": "s",
    "q.extract_dedup_clusters_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "stages.extract.kernel_s": "s",
    "stages.extract.spans_out": "count",
    "stages.extract.payload_mb": "MB",
    "functions.scoring.score_s": "s",
    "functions.scoring.memo_hit_ratio": "ratio",
    "state.shards.cold_start_s": "s",
    "state.shards.fence_check_s": "s",
    "state.shards.output_fingerprint_s": "s",
    "state.shards.shard_s_max_over_median": "ratio",
    "pipelines.extract.materialize_s": "s",
    "pipelines.extract.op_s.read": "s",
    "pipelines.extract.op_s.extract": "s",
    "state.lineage.write_s": "s",
    "state.lineage.exchange_mb": "MB",
    "state.lineage.partition_rows_max_over_mean": "ratio",
    "state.lineage.resume_useful_ratio": "ratio",
    "query_utils.read_s.events": "s",
    "query_utils.read_s.documents": "s",
    "query_utils.sort_s.events_sessionize": "s",
    "query_utils.side_channel_rows.events_sessionize": "count",
    "stages.text_dedup.s": "s",
    "stages.text_dedup.candidate_pairs": "count",
    "stages.text_dedup.verify_yield": "ratio",
    "stages.dedup.clusters_s": "s",
}


def _proc_start_epoch() -> float:
    """Wall-clock start of this process (from /proc), so set-up time
    includes interpreter start-up."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(l.split()[1]) for l in f if l.startswith("btime"))
    return btime + start_ticks / os.sysconf("SC_CLK_TCK")


def _set_child_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    PR_SET_CHILD_SUBREAPER = 36
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print(f"[bench] prctl(PR_SET_CHILD_SUBREAPER) failed: errno {ctypes.get_errno()}",
              file=sys.stderr)


class ProcTree:
    """Samples the summed RSS of this process and its descendants and
    remembers every descendant it has seen, by (pid, start time)."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self):
        self.root = os.getpid()
        self.peak_bytes = 0
        self.seen: set[tuple[int, str]] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _stat(pid: int) -> "tuple[int, str] | None":
        try:
            with open(f"/proc/{pid}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except OSError:
            return None
        return int(rest[1]), rest[19]  # ppid, start time

    def descendants(self) -> list[tuple[int, str]]:
        children: dict[int, list[tuple[int, str]]] = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = self._stat(int(name))
                if st is not None:
                    children.setdefault(st[0], []).append((int(name), st[1]))
        out, todo = [], [self.root]
        while todo:
            for kid in children.get(todo.pop(), []):
                out.append(kid)
                todo.append(kid[0])
        return out

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as f:
                return int(f.read().split()[1]) * self.PAGE
        except OSError:
            return 0

    def sample(self) -> None:
        kids = self.descendants()
        self.seen.update(kids)
        total = self._rss(self.root) + sum(self._rss(pid) for pid, _ in kids)
        self.peak_bytes = max(self.peak_bytes, total)

    def _loop(self) -> None:
        while not self._stop.wait(0.1):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def kill_all(self, grace_s: float = 10.0) -> None:
        """SIGKILL every live descendant and every process seen earlier
        that still runs with the same start time, then reap until none
        is left."""
        deadline = time.monotonic() + grace_s
        while True:
            live = set(self.descendants())
            live |= {(pid, st) for pid, st in self.seen if self._stat(pid) is not None
                     and self._stat(pid)[1] == st}
            for pid, _ in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            while True:
                try:
                    pid, _ = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == 0:
                    break
            if not live:
                return
            if time.monotonic() > deadline:
                print(f"[bench] could not reap {sorted(live)}", file=sys.stderr)
                return
            time.sleep(0.05)


def _ray_temp_dir(run_id: str) -> str:
    """Ray's session directory, inside the checkout when the Unix socket
    paths under it fit the 107-byte limit; otherwise a short symlink in
    the system temp directory points into the checkout."""
    real = os.path.join(CACHE_DIR, "ray")
    os.makedirs(real, exist_ok=True)
    # <temp>/session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid>/sockets/plasma_store
    if len(real) + 64 <= 107:
        return real
    link = os.path.join("/tmp", f"xb-{run_id}")
    if os.path.islink(link):
        os.remove(link)
    os.symlink(real, link)
    return link


def _prune(directory: str, keep: int) -> None:
    """Remove all but the ``keep`` newest entries of ``directory``."""
    if not os.path.isdir(directory):
        return
    entries = sorted(
        (os.path.join(directory, e) for e in os.listdir(directory)),
        key=lambda p: os.lstat(p).st_mtime,
    )
    for path in entries[: max(0, len(entries) - keep)]:
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.remove(path)


class Run:
    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.samples: dict[str, list[float]] = {}
        self.setup_s: "float | None" = None
        self.done = False

    def on_event(self, ev: dict, t0: float) -> None:
        kind = ev["ev"]
        if kind == "setup_done":
            self.setup_s = time.time() - t0
        elif kind == "end":
            self.attempted += 1
            if not ev["ok"]:
                self.failed += 1
                self.check_failed |= ev["check_failed"]
            for k, v in ev["samples"].items():
                self.samples.setdefault(k, []).append(v)
        elif kind == "done":
            self.done = True

    def result(self, peak_rss_bytes: int) -> dict:
        spec = PER_LAYER if self.args.trace else END_TO_END
        values = {k: statistics.median(v) for k, v in self.samples.items()}
        if not self.args.trace:
            values["setup_s"] = self.setup_s
            values["peak_rss_mb"] = peak_rss_bytes / 1e6
        return {
            "correct": not self.check_failed,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in spec.items() if k in values},
        }


def main() -> int:
    t0 = _proc_start_epoch()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    _set_child_subreaper()
    root = os.getcwd()
    run_id = f"{os.getpid()}"
    work = os.path.join(CACHE_DIR, "work", run_id)
    logs = os.path.join(CACHE_DIR, "logs")
    os.makedirs(work, exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    ray_dir = _ray_temp_dir(run_id)
    log_path = os.path.join(logs, f"{args.workload}-{args.seed}-t{args.trace}-{run_id}.log")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root, BENCH_DIR] + [p for p in [env.get("PYTHONPATH")] if p])
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    rfd, wfd = os.pipe()
    tree = ProcTree()
    tree.start()
    run = Run(args)
    hung = None
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--proto-fd", str(wfd), "--input-dir", os.path.join(CACHE_DIR, "inputs"),
             "--work-dir", work, "--ray-dir", ray_dir],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, pass_fds=[wfd], env=env, cwd=root,
        )
        os.close(wfd)
        buf = b""
        current, kill_at = "setup", time.time() + SETUP_DEADLINE_S
        with os.fdopen(rfd, "rb", buffering=0) as proto:
            while not run.done:
                limit = min(kill_at, t0 + HARD_LIMIT_S)
                ready, _, _ = select.select([proto], [], [], max(0.0, min(0.5, limit - time.time())))
                if ready:
                    chunk = proto.read(65536)
                    if not chunk:
                        break  # the child exited
                    buf += chunk
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        ev = json.loads(line)
                        run.on_event(ev, t0)
                        if ev["ev"] == "begin":
                            current, kill_at = ev["op"], time.time() + ev["deadline_s"]
                        elif ev["ev"] in ("end", "setup_done"):
                            current, kill_at = None, float("inf")
                elif time.time() >= limit:
                    hung = current
                    break
        if hung is None and run.done:
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                print("[bench] worker did not exit after shutdown", file=sys.stderr)
    tree.sample()
    tree.stop()
    tree.kill_all()
    if child.poll() is None:
        child.wait()
    if ray_dir != os.path.join(CACHE_DIR, "ray"):
        os.remove(ray_dir)
    shutil.rmtree(work, ignore_errors=True)
    _prune(os.path.join(CACHE_DIR, "ray"), 3)
    _prune(logs, KEEP_LOGS)
    _prune(os.path.join(CACHE_DIR, "inputs"), KEEP_INPUT_SETS)

    if hung is not None and hung != "setup":
        print(f"[bench] operation {hung} passed its deadline; worker killed", file=sys.stderr)
        run.attempted += 1
        run.failed += 1
    if run.setup_s is None or run.attempted == 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        print(f"[bench] worker failed before measuring (exit {child.returncode}); log tail:\n{tail}",
              file=sys.stderr)
        return 1
    print(json.dumps(run.result(tree.peak_bytes)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
