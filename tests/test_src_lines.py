"""The line-count tool counts wc -l lines and code lines, leaving out blank
lines, comments and docstrings, per module and in total."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_lines.py")

MODULE = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string
that is code"""
        return math.pi, text
'''


def run(*args):
    done = subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    record = run(str(tmp_path))
    # a.py's code: import, class, def, the two lines of text, return
    assert record["modules"] == {"a.py": {"wc": 15, "code": 6}, "b.py": {"wc": 2, "code": 1}}
    assert record["total"] == {"wc": 17, "code": 7}


def test_library_total_is_the_sum_of_its_modules():
    record = run()
    assert "grids.py" in record["modules"]
    for key in ("wc", "code"):
        assert record["total"][key] == sum(entry[key] for entry in record["modules"].values())
    assert 0 < record["total"]["code"] < record["total"]["wc"]
