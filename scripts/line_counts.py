#!/usr/bin/env python3
"""Count code-only lines of src/delegatebox and each module's parser tokens.

A code-only line is one that a token other than a comment, a docstring or
layout touches. A module's token count is what the parser sees (tokenize
without comments, NL and ENCODING): compiling a module of more than 4,096
tokens doubles the parser's token array, which shows in perfbench's
peak_rss_mb, since the benchmark compiles from source. Each module over that
step also gets a ``::warning::`` annotation line on stderr.

Usage: python scripts/line_counts.py   (from the root of the repository)
"""

import glob
import sys
import tokenize

STEP = 4096
LAYOUT = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
UNPARSED = {tokenize.NL, tokenize.COMMENT, tokenize.ENCODING}


def count(path: str) -> tuple:
    """(code-only lines, parser tokens) of one module."""
    lines, statement, tokens = set(), [], 0
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            tokens += tok.type not in UNPARSED
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if [t.type for t in statement] != [tokenize.STRING]:  # not a docstring
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    return len(lines), tokens


def main() -> int:
    total = 0
    for path in sorted(glob.glob("src/delegatebox/*.py")):
        lines, tokens = count(path)
        total += lines
        step = "over" if tokens > STEP else "under"
        print(f"{tokens:6d} tokens in {path}, {step} the parser's {STEP}-token step")
        if tokens > STEP:
            print(f"::warning file={path}::{tokens} tokens, over the parser's {STEP}-token step",
                  file=sys.stderr)
    print(f"{total:6d} src/delegatebox code only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
