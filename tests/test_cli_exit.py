"""The CLI's exit path.

``python -m altcausal.cli`` leaves through ``cli.run``, which exits with
``main``'s code and skips the interpreter's teardown.  A write to stdout
that fails is one ``error:`` line on stderr and exit 1, and a stream
Python could not open is never written to; each case below prints and
exits the same with buffered and with unbuffered standard streams.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from altcausal.cli import build_parser, main

RUN = [sys.executable, "-m", "altcausal.cli"]
COLUMNS = "80"   # argparse wraps its help to the terminal width
FULL = b"error: [Errno 28] No space left on device\n"
DUALITY = ["duality", "--points", "100", "--json", "-"]

# name: (arguments, shell redirection, expected (exit code, stdout, stderr)).
# A redirection of None writes stdout into a pipe whose read end is closed.
# The outputs SUMMARY, REPORT, HELP and USAGE are those an in-process
# ``main`` writes for the same arguments.
CASES = {
    "normal run": (["wfecho"], "", (0, "SUMMARY", b"")),
    "report to stdout": (["wfecho", "--json", "-"], "", (0, "REPORT", b"")),
    "stdout closed": (["wfecho"], ">&-", (0, b"", b"")),
    "stderr closed": (["wfecho"], "2>&-", (0, "SUMMARY", b"")),
    "no command": ([], "", (2, "HELP", b"")),
    "refused input": (["pif", "--slices", "0"], "",
                      (1, b"", b"error: slices must be >= 1, got 0\n")),
    "refused with stderr closed": (["pif", "--slices", "0"], "2>&-", (1, b"", b"")),
    "refused with stderr full": (["pif", "--slices", "0"], "2> /dev/full", (1, b"", b"")),
    "failed check with stderr closed": (["rcp", "--tmax", "1e15", "--json", "-"], "2>&-",
                                        (1, "REPORT", b"")),
    "report to a closed pipe": (DUALITY, None, (1, b"", b"error: [Errno 32] Broken pipe\n")),
    "report to a full device": (DUALITY, "> /dev/full", (1, b"", FULL)),
    "summary to a full device": (["wfecho"], "> /dev/full", (1, b"", FULL)),
    "help to a full device": ([], "> /dev/full", (1, b"", FULL)),
    "report to a closed stdout": (["wfecho", "--json", "-"], ">&-",
                                  (1, b"", b"error: '-' writes to stdout, which is closed\n")),
    "report before a failed write": (["wfecho", "--json", "-", "--csv", "/dev/full"], "",
                                     (1, "REPORT", FULL)),
    "usage error": (["pif", "--bogus"], "", (2, b"", "USAGE")),
}


def _in_process(args: list[str], output: str, tmp_path) -> bytes:
    """What ``main(args)`` writes as ``output`` in this process."""
    if output == "HELP":
        return build_parser().format_help().encode()
    if output == "USAGE":
        return (build_parser().format_usage()
                + f"altcausal: error: unrecognized arguments: {args[-1]}\n").encode()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if output == "SUMMARY":
            main(args)
            return stdout.getvalue().encode()
        path = tmp_path / "report.json"
        main([*args[:args.index("--json") + 1], str(path)])
    return path.read_bytes()


def _child(cmd: list[str], args: list[str], redirect: str | None, unbuffered: bool):
    """(exit code, stdout, stderr) of ``cmd args`` run by ``sh`` under ``redirect``;
    a ``redirect`` of None writes stdout into a pipe whose read end is closed.

    ``cmd`` names the interpreter by its path: a launcher script in its
    place could hold a descriptor open that the redirection closes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), COLUMNS=COLUMNS)
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
def test_the_exit_path_prints_and_exits_as_the_normal_exit(case, unbuffered, monkeypatch,
                                                          tmp_path):
    args, redirect, expected = CASES[case]
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = tuple(_in_process(args, part, tmp_path) if isinstance(part, str) else part
                     for part in expected)
    assert _child(RUN, args, redirect, unbuffered) == expected


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


@pytest.mark.parametrize("force", [False, True], ids=["teardown skipped", "failed flush"])
def test_a_run_skips_the_interpreter_exit(force):
    got = _child([sys.executable, "-c", MARKED_RUN], ["force"] if force else [], "",
                 unbuffered=False)
    if force:   # what stdout held is dropped with the process
        assert got == (1, b"", b"error: flush refused\n")
    else:
        assert got[0::2] == (0, b"")
        assert got[1].startswith(b"experiment: wfecho\n")
