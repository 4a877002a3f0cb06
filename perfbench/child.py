"""One fresh benchmark process: import trihex, run a plan's commands through cli.main, check them.

Started by run.py as `python3 perfbench/child.py SRC_DIR`, with the plan as
JSON on stdin.  The plan is read only after `trihex.cli` is imported, so
the import is the only work before READY.  Each command's stdout goes to a
sink that hashes, counts and checks it line by line without keeping it; the
sink's own time is subtracted from the command's.  The yardstick parts the
plan uses (see yardstick.py) run before the first command and after each
one, so every command has a reference time on each side.  The result is one
JSON line on the real stdout.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import trihex.cli  # noqa: E402  (this import is the timed set-up)

READY = time.monotonic()
SETUP_CPU = time.process_time()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402

import numpy  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import COUNT_HEADER  # noqa: E402
from yardstick import measure as yardstick  # noqa: E402

MAX_PROBLEMS = 5


class Check:
    """Line-by-line check of one command's stdout."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.problems: list[str] = []
        self.lines = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def line(self, text: str) -> None:
        self.lines += 1

    def finish(self) -> None:
        pass


class CountCheck(Check):
    """CSV rows for consecutive V: the paper's identities, and sigma equal to a divisor sum."""

    def __init__(self, spec):
        super().__init__(spec)
        self.sigma = array("q", bytes.fromhex(spec["sigma"]))

    def line(self, text):
        row = self.lines - 1
        self.lines += 1
        if row < 0:
            if text != COUNT_HEADER:
                self.fail(f"header {text!r}")
            return
        try:
            v, sigma, delta, mu, nu, trihexes, gamma, rot = map(int, text.split(","))
        except ValueError:
            self.fail(f"row {text!r} is not eight integers")
            return
        if row >= len(self.sigma) or v != self.spec["first_v"] + 4 * row:
            self.fail(f"row {row} has V={v}")
        elif sigma != self.sigma[row]:
            self.fail(f"V={v}: sigma {sigma}, divisor sum {self.sigma[row]}")
        if 3 * trihexes != sigma + 2 * delta:
            self.fail(f"V={v}: 3T != sigma + 2 delta")
        if 6 * gamma != sigma + 2 * delta + 3 * mu:
            self.fail(f"V={v}: 6 gamma != sigma + 2 delta + 3 mu")
        if 2 * rot != delta + nu:
            self.fail(f"V={v}: 2 rot != delta + nu")

    def finish(self):
        if self.lines != len(self.sigma) + 1:
            self.fail(f"{self.lines} lines, expected {len(self.sigma) + 1}")


class VerifyCheck(Check):
    """`verify --quiet` prints only its summary line, with no failures."""

    def line(self, text):
        self.lines += 1
        self.last = text

    def finish(self):
        expected = f"checked {self.spec['checked']} vertex counts, 0 failures"
        if self.lines != 1 or self.last != expected:
            self.fail(f"{self.lines} lines ending {getattr(self, 'last', '')!r}, expected {expected!r}")


class CongruenceCheck(Check):
    """Every root solves x^2 + x + 1 = 0 (mod n); as many roots as n's factorization gives."""

    def line(self, text):
        self.lines += 1
        n = self.spec["n"]
        if self.lines == 1:
            roots = [int(x) for x in text.split()]
            if roots != sorted(set(roots)) or any(not 0 <= x < n or (x * x + x + 1) % n for x in roots):
                self.fail(f"roots {roots[:4]} do not all solve the congruence mod {n}")
            if len(roots) != self.spec["roots"]:
                self.fail(f"{len(roots)} roots mod {n}, expected {self.spec['roots']}")
        elif text != f"count {self.spec['roots']}":
            self.fail(f"line {text!r}, expected 'count {self.spec['roots']}'")

    def finish(self):
        if self.lines != 2:
            self.fail(f"{self.lines} lines, expected 2")


CHECKS = {"count": CountCheck, "verify": VerifyCheck, "congruence": CongruenceCheck}


class Sink:
    """Stands in for sys.stdout: hashes, counts and checks text, keeping at most one line."""

    CHUNK = 1 << 16

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.check: Check = Check({})
        self.partial = ""

    def write(self, text: str) -> int:
        t0, c0 = time.monotonic(), time.process_time()
        for i in range(0, len(text), self.CHUNK):
            data = text[i : i + self.CHUNK].encode()
            self.digest.update(data)
            self.bytes += len(data)
        start = 0
        while (end := text.find("\n", start)) >= 0:
            self.check.line(self.partial + text[start:end])
            self.partial = ""
            start = end + 1
        self.partial += text[start:]
        self.wall += time.monotonic() - t0
        self.cpu += time.process_time() - c0
        return len(text)

    def flush(self) -> None:
        pass

    def close_command(self) -> list[str]:
        if self.partial:
            self.check.fail(f"output does not end in a newline: {self.partial[:40]!r}")
            self.partial = ""
        self.check.finish()
        return self.check.problems


def main() -> None:
    plan = json.loads(sys.stdin.read())
    sink = Sink()
    cli_main = trihex.cli.main
    tracer = None
    if plan.get("trace"):
        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main)
        sink.write = tracer.wrap("bench.sink", sink.write)

    # the python part always runs: the set-up is scaled by it
    parts = sorted({"python"} | {command["yardstick"] for command in plan["commands"]})
    refs = [yardstick(parts)]
    commands = []
    real_stdout = sys.stdout
    for command in plan["commands"]:
        sink.check = CHECKS[command["check"]["kind"]](command["check"])
        sink_wall, sink_cpu = sink.wall, sink.cpu
        problems = []
        sys.stdout = sink
        t0, c0 = time.monotonic(), time.process_time()
        try:
            rc = cli_main(command["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            t1, c1 = time.monotonic(), time.process_time()
            sys.stdout = real_stdout
        seconds = (t1 - t0) - (sink.wall - sink_wall)
        cpu = (c1 - c0) - (sink.cpu - sink_cpu)
        if rc != 0:
            problems.append(f"exit code {rc}")
        problems.extend(sink.close_command())
        refs.append(yardstick(parts))
        part = command["yardstick"]
        commands.append(
            {
                "argv": command["argv"],
                "rc": rc,
                "problems": problems,
                "s": seconds,
                "cpu_s": cpu,
                "yardstick": part,
                "ref_s": (refs[-2][part][0] + refs[-1][part][0]) / 2,
                "ref_cpu_s": (refs[-2][part][1] + refs[-1][part][1]) / 2,
            }
        )

    result = {
        "ready": READY,
        "setup_cpu_s": SETUP_CPU,
        # the set-up is interpreter work, so it is scaled by the python part alone
        "setup_ref_s": refs[0]["python"][0],
        "setup_ref_cpu_s": refs[0]["python"][1],
        "command_s": sum(c["s"] for c in commands),
        "cpu_s": SETUP_CPU + sum(c["cpu_s"] for c in commands),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": sink.digest.hexdigest(),
        "output_bytes": sink.bytes,
        "commands": commands,
        "numpy": numpy.__version__,
        "trace": tracer.summary() if tracer else None,
    }
    real_stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
