"""The flat tokenizer against the verbose one it replaced.

`syntax._scan` runs one flat alternation with findall and drops comment
tokens itself. The reference below is the pattern it used before, kept
verbatim: a skip group of whitespace and comments before every token, the
token in a capture group, `\\Z` for the empty end token and `.` for any
other character. Random texts go through both, and each must give the same
token kinds and texts, or the same ParseError message, line and column.
"""

import itertools
import random
import re
import time

from chcpair import syntax
from chcpair.errors import ParseError


# --- the reference: the verbose pattern, as it was ---------------------------

_OLD_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*)*                # whitespace and comments belong to no token
    (   :- | =\\= | =< | >= | = | < | >
      | [0-9]+ | [A-Z_][A-Za-z0-9_]* | [a-z][A-Za-z0-9_]*
      | [(),.*+\-]
      | \Z                          # the end of the text, an empty token
      | .                           # any other character, an error
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _old_scan(text):
    texts = _OLD_TOKEN_RE.findall(text)
    # after trailing whitespace, findall also returns the empty match at the
    # end of the text: a second end token, which the grammar never read, as
    # it stops at the first
    del texts[texts.index("") + 1:]
    kind_of = syntax._KindOf(syntax._FIXED_KINDS)
    kinds = [kind_of[t] for t in texts]
    if syntax._BAD in kinds:
        i = kinds.index(syntax._BAD)
        offset = next(itertools.islice(_OLD_TOKEN_RE.finditer(text), i, None)).start(1)
        line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        raise ParseError(f"unexpected character {texts[i]!r}", line, col)
    return kinds, texts


# --- random texts ------------------------------------------------------------

TOKENS = ("X", "Y1", "_v", "Sum", "p", "q_2", "false", "sorts", "read", "0", "17", "007",
          ":-", "=\\=", "=<", ">=", "=", "<", ">", "*", "+", "-", "(", ")", ",", ".")
# pieces that run into their neighbours when no space separates them
GLUE = ("=", "\\", ":", "-", "<", ">", "%")
SPACES = (" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2003", "\u2028", "\u3000")
# ARABIC-INDIC digits, non-ASCII letters and lone characters that start no token
BAD = ("\u0660", "\u0663\u0669", "\u00e9", "\u00df", "\u03a9", "\u5909", "x\u00e9", ":", "\\",
       "@", "$", "\x00")


def random_text(rng):
    bad = rng.random() < 0.5
    out = []
    for _ in range(rng.randint(0, 25)):
        r = rng.random()
        if r < 0.55:
            out.append(rng.choice(TOKENS))
        elif r < 0.7:
            out.append(rng.choice(GLUE))
        elif r < 0.8:
            words = (rng.choice(TOKENS + SPACES[:1] + BAD) for _ in range(rng.randint(0, 3)))
            out.append("%" + "".join(words) + "\n")
        elif r < 0.85 and bad:
            out.append(rng.choice(BAD))
        else:
            out.append(rng.choice(SPACES))
        if rng.random() < 0.5:
            out.append(rng.choice(SPACES))
    if rng.random() < 0.2:
        # a comment that ends the text, with no newline after it
        out.append("% " + rng.choice(TOKENS))
    return "".join(out)


def _outcome(scan, text):
    try:
        return scan(text)
    except ParseError as e:
        return str(e), e.line, e.col


def test_flat_tokenizer_matches_the_verbose_one():
    rng = random.Random(20261019)
    seen = {"tokens": 0, "error": 0, "comment": 0, "end_comment": 0}
    deadline = time.monotonic() + 3.0
    cases = 0
    while cases < 4000 and (cases < 400 or time.monotonic() < deadline):
        cases += 1
        text = random_text(rng)
        want = _outcome(_old_scan, text)
        got = _outcome(syntax._scan, text)
        assert got == want, repr(text)
        seen["tokens" if isinstance(want[0], list) else "error"] += 1
        seen["comment"] += "%" in text
        seen["end_comment"] += "%" in text.rpartition("\n")[2]
    assert all(n >= 40 for n in seen.values()), seen


def test_comments_do_not_count_as_tokens_in_error_positions():
    text = "% a\np(X) :- % b\n  X = \u0663. % c"
    message = "unexpected character '\u0663' (line 3, column 7)"
    assert _outcome(syntax._scan, text) == (message, 3, 7)
    kinds, texts = syntax._scan("p(X). % end")
    assert texts == ["p", "(", "X", ")", ".", ""] and kinds[-1] == syntax._EOF
