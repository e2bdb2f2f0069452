"""The compiled kernel library's source builds, warning-free.

A source that fails to compile degrades silently to the NumPy fallbacks, and
every test that needs the library then skips, so a broken C edit would pass
the suite unseen.  This test compiles ``_native._SOURCE`` itself with the
library's flags plus ``-Wall -Werror``.
"""

import shutil
import subprocess

import pytest

from repro.runtime.kernels import _native


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on this host")
def test_source_compiles_with_warnings_as_errors(tmp_path):
    source = tmp_path / "kernels.c"
    source.write_text(_native._SOURCE)
    result = subprocess.run(
        ["cc", *_native._CFLAGS, "-Wall", "-Werror", str(source), "-o", str(tmp_path / "kernels.so")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
