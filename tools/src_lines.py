"""Line counts of the library's modules.

    python3 tools/src_lines.py [DIR]

For each module under DIR (default src/kasnerlab) and in total it prints
the `wc -l` count and the code lines: lines that carry a token other than
a comment, leaving out blank lines and docstrings.  tokenize finds the
tokens, ast the docstrings (the leading string of a module, class or
function body).  The last stdout line is the same as JSON.
"""

import ast
import io
import json
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(wc -l lines, code lines) of one source file."""
    with open(path, "rb") as src:
        raw = src.read()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(raw).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(raw))
    return raw.count(b"\n"), len(code)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top = argv[0] if argv else os.path.join(ROOT, "src", "kasnerlab")
    modules = {}
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            wc, code = count(os.path.join(top, name))
            modules[name] = {"wc": wc, "code": code}
    total = {key: sum(entry[key] for entry in modules.values()) for key in ("wc", "code")}
    for name, entry in [*modules.items(), ("total", total)]:
        print(f"{name:16s} {entry['wc']:6d} {entry['code']:6d}")
    print(json.dumps({"modules": modules, "total": total}))


if __name__ == "__main__":
    main()
