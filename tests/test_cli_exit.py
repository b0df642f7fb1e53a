"""The CLI's exit path.

``python -m altcausal.cli`` leaves through ``cli.run``, which flushes
stdout and stderr and then skips the interpreter's teardown.  Every run
must exit, print and fail exactly as ``sys.exit(main())`` does, under
buffered and unbuffered standard streams alike.
"""

import os
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "altcausal.cli"]
NORMAL_EXIT = [sys.executable, "-c", "import sys; from altcausal.cli import main; sys.exit(main())"]

# name: (arguments, shell redirection, exit code with buffered and with
# unbuffered streams).  A write that fails inside main prints one error
# line; one that fails only when Python flushes stdout at exit gives 120.
CASES = {
    "normal run": (["wfecho"], "", (0, 0)),
    "report to stdout": (["wfecho", "--json", "-"], "", (0, 0)),
    "stdout closed": (["wfecho"], ">&-", (0, 0)),
    "stderr closed": (["wfecho"], "2>&-", (0, 0)),
    "refused with stderr closed": (["pif", "--slices", "0"], "2>&-", (1, 1)),
    "report to a closed pipe": (["duality", "--points", "100", "--json", "-"], None, (120, 1)),
    "report to a full device": (["duality", "--points", "100", "--json", "-"], "> /dev/full",
                                (120, 1)),
    "summary to a full device": (["wfecho"], "> /dev/full", (120, 1)),
    "refused input": (["pif", "--slices", "0"], "", (1, 1)),
    "usage error": (["pif", "--bogus"], "", (2, 2)),
}


def _child(cmd: list[str], args: list[str], redirect: str | None, unbuffered: bool):
    """(exit code, stdout, stderr) of ``cmd args`` run by ``sh`` under ``redirect``;
    a ``redirect`` of None writes stdout into a pipe whose read end is closed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["sh", "-c", f'exec "$@" {redirect or ""}', "sh", *cmd, *args]
    if redirect is not None:
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, b"", proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", CASES)
def test_the_exit_path_prints_and_exits_as_the_normal_exit(case, unbuffered):
    args, redirect, codes = CASES[case]
    got = _child(RUN, args, redirect, unbuffered)
    assert got == _child(NORMAL_EXIT, args, redirect, unbuffered)
    assert got[0] == codes[unbuffered]
    assert b"Traceback" not in got[2]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failing_stdout_write_is_one_error_line_unbuffered():
    # unbuffered, the summary's print and the report's write fail inside main
    assert _child(RUN, ["wfecho"], "> /dev/full", True) == (
        1, b"", b"error: [Errno 28] No space left on device\n")
    assert _child(RUN, ["duality", "--points", "100", "--json", "-"], None, True) == (
        1, b"", b"error: [Errno 32] Broken pipe\n")


MARKED_RUN = """
import atexit, os, runpy, sys
atexit.register(os.write, 2, b"atexit ran\\n")
if sys.argv[1:] == ["force"]:
    class FlushFails:
        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            return self.stream.write(text)

        def flush(self):
            raise OSError("flush refused")

    sys.stdout = FlushFails(sys.stdout)
sys.argv = ["altcausal", "wfecho"]
runpy.run_module("altcausal.cli", run_name="__main__")
"""


@pytest.mark.parametrize("force", [False, True], ids=["teardown skipped", "flush fallback"])
def test_the_interpreter_exits_normally_only_when_a_flush_fails(force):
    rc, out, err = _child([sys.executable, "-c", MARKED_RUN], ["force"] if force else [], "",
                          unbuffered=False)
    if force:   # Python's exit runs atexit, then fails to flush stdout
        assert rc == 120 and err.startswith(b"atexit ran\nException ignored in: ")
    else:
        assert (rc, err) == (0, b"")
        assert out.startswith(b"experiment: wfecho\n")
