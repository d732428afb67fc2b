import hashlib
import os
import platform
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(README.parent / "src")

# import relaygain from the source tree without an install or PYTHONPATH, here
# and in the interpreters the tests start
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def readme_csv_sha256():
    """check(path, name): the CSV at `path` has the sha256 that README.md's table
    gives for `name`. The table holds on the platform it names; elsewhere the
    check skips the test, so call it after the test's other assertions."""
    table = dict(re.findall(r"^\| `(\w+\.csv)` \| `([0-9a-f]{64})` \|$",
                            README.read_text(encoding="utf-8"), re.M))

    def check(path, name):
        if (sys.version_info[:2], platform.machine(), platform.libc_ver()[0]) != (
                (3, 11), "x86_64", "glibc"):
            pytest.skip("README CSV sha256 table is for Python 3.11, x86-64, glibc")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == table[name], name

    return check
