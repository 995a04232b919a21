"""Check that seeded benchmark passes still produce the recorded outputs.

Run from anywhere, with the interpreter and numpy under test:

    python3 .github/check_digests.py

For every workload and seed in bench_digests.json (next to this script) it
runs `perfbench/run.py --workload W --seed S --seconds 1` and reads the
pass's `digests {...}` line.  It exits 1, naming every digest that differs
from the recorded one or is missing, or any pass that fails.  It always
prints the observed digests in the file's layout, so an output change made
on purpose can be re-recorded by replacing the file with that JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).with_name("bench_digests.json")


def run_pass(workload: str, seed: str) -> dict:
    """The digests a one-second pass prints; raises RuntimeError when the
    pass fails or prints none."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", "1"],
        capture_output=True, text=True, cwd=ROOT)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("digests ")]
    if proc.returncode or not lines:
        raise RuntimeError(f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[0].removeprefix("digests "))


def main() -> int:
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    observed, problems = {}, []
    for workload, seeds in recorded.items():
        for seed, want in seeds.items():
            try:
                got = run_pass(workload, seed)
            except RuntimeError as exc:
                problems.append(f"{workload} seed {seed}: pass failed, {exc}")
                continue
            observed.setdefault(workload, {})[seed] = got
            for name in sorted(want.keys() | got.keys()):
                if want.get(name) != got.get(name):
                    problems.append(f"{workload} seed {seed} {name}: recorded "
                                    f"{want.get(name)}, observed {got.get(name)}")
    print(json.dumps(observed, indent=2, sort_keys=True))
    for problem in problems:
        print(f"check_digests: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
