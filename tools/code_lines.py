"""Count the code lines of Python files: the physical lines that hold a
token of code, so blank lines, comments and docstrings do not count.

usage: python3 tools/code_lines.py [PATH...]

Each PATH is a .py file or a directory, whose *.py files are counted (not
its subdirectories); the default is src/nlchns.  Prints one line per file
and the total.  A line counts when a token other than a comment, a
newline or an indent change lies on it; a statement or a string that
spans lines counts every line it spans.  A docstring is the string
statement that opens a module, a class or a function (ast.get_docstring's
rule), and its lines do not count.
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def python_files(path):
    if os.path.isdir(path):
        return sorted(os.path.join(path, name) for name in os.listdir(path)
                      if name.endswith(".py"))
    return [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or [
        os.path.join(os.path.dirname(__file__), "..", "src", "nlchns")]
    total = 0
    for path in paths:
        for name in python_files(path):
            with open(name) as fh:
                count = code_lines(fh.read())
            print(f"{count:6d}  {os.path.relpath(name)}")
            total += count
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
