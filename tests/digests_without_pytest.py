"""Check the pinned output digests of `test_output_digests.py` without pytest.

Run it from the repository root with any Python from 3.10 on:

    python3 tests/digests_without_pytest.py

It stubs `pytest.mark.parametrize`, imports the test module and calls its test
once per loop, with a fresh directory and a stand-in for `capsys`.  It prints
one line per loop and exits 1 if any digest differs.
"""

import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]


def parametrize(names, cases, ids):
    def mark(test):
        test.cases = list(zip(ids, cases))
        return test
    return mark


sys.modules["pytest"] = types.SimpleNamespace(mark=types.SimpleNamespace(parametrize=parametrize))
import test_output_digests  # noqa: E402  (after the stub it imports)


class Capture:
    """`capsys.readouterr()` over the buffers that stdout and stderr go to."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        text = self.out.getvalue(), self.err.getvalue()
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        return text


def main():
    test, differ = test_output_digests.test_output_is_byte_identical, 0
    for name, case in test.cases:
        cap = Capture()
        with tempfile.TemporaryDirectory() as d:
            try:
                with contextlib.redirect_stdout(cap.out), contextlib.redirect_stderr(cap.err):
                    test(Path(d), cap, *case)
            except AssertionError:
                differ += 1
                print(f"{name}: digest differs")
            else:
                print(f"{name}: ok")
    print(f"{sys.version.split()[0]}: {len(test.cases) - differ}/{len(test.cases)} digests match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
