"""The shared integer rule, and what `import cvqc_lab` binds."""

import subprocess
import sys

import numpy as np
import pytest

from cvqc_lab import config


class Refused(Exception):
    """Stands in for a caller's typed error."""


class TestCheckInt:
    @pytest.mark.parametrize("bad", [True, np.bool_(True), 3.0, "3", None])
    def test_non_integers_refused_with_a_high_bound(self, bad):
        with pytest.raises(Refused, match="not an integer"):
            config.check_int("k", bad, 1, Refused, 7)

    def test_both_ends_are_inclusive(self):
        assert config.check_int("k", 1, 1, Refused, 7) == 1
        assert config.check_int("k", 7, 1, Refused, 7) == 7
        for bad in (0, 8):
            with pytest.raises(Refused) as err:
                config.check_int("k", bad, 1, Refused, 7)
            assert str(err.value) == f"k={bad} outside 1..7"

    def test_without_high_the_message_stays_below_low(self):
        with pytest.raises(Refused) as err:
            config.check_int("k", -1, 0, Refused)
        assert str(err.value) == "k=-1 below 0"
        assert config.check_int("k", 1 << 80, 0, Refused) == 1 << 80

    def test_numpy_integer_comes_back_a_plain_int(self):
        got = config.check_int("k", np.int64(7), 1, Refused, 7)
        assert got == 7 and type(got) is int


def test_import_binds_the_six_modules():
    # a fresh interpreter, so no test's own imports bind a submodule first
    names = ("config", "effverify", "jordan", "partition", "protocol", "qsim")
    script = ("import sys, cvqc_lab\n"
              f"for name in {names!r}:\n"
              "    assert getattr(cvqc_lab, name) is sys.modules['cvqc_lab.' + name], name\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
