"""The CLI byte-identity corpus: a fixed command list, replayed in-process.

`cli_corpus.jsonl` holds one entry per command: its argv, the text fed to
stdin (only where a command reads it), the exit code, stdout and stderr.
`test_cli_corpus.py` replays every entry and compares the bytes.  The list
covers all subcommands, each in text and JSON, with their refusals and
`--help`; `suite` timings are masked.

Regenerate the corpus after a deliberate output change, and list each
changed entry, old -> new, in CHANGES.md:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from littlewood import cli

CORPUS = Path(__file__).resolve().parent / "cli_corpus.jsonl"
COLUMNS = "80"  # argparse wraps --help and usage text at the terminal width

_G2_CHARACTER = json.dumps({f"fund:G2:{w}": 1 for w in ("1,0", "-1,1", "0,0", "1,-1", "-1,0", "-2,1", "2,-1")})

# (argv, stdin); each argv runs once as text and once with --format json
_COMMANDS = [
    # bott
    (("bott", "--type", "D3", "--weight", "eps:1/2,1/2,-3/2"), None),
    (("bott", "--type", "C2", "--weight", "eps:-2,0"), None),
    (("bott", "--type", "G2", "--weight=-3,2"), None),
    (("bott", "--type", "D3", "--weight=eps:1/2,-5/2,1/2"), None),
    (("bott", "--type", "C3", "--weight", "eps:0,3,0"), None),
    (("bott", "--spin", "Dplus", "--n", "3", "--lambda", "2,1"), None),
    (("bott", "--spin", "Dminus", "--n", "3", "--lambda", "2,1"), None),
    (("bott", "--spin", "B", "--n", "3", "--lambda", "1"), None),
    (("bott", "--spin", "B", "--n", "2"), None),
    (("bott",), None),
    (("bott", "--type", "G2"), None),
    (("bott", "--spin", "B"), None),
    (("bott", "--spin", "B", "--n", "0"), None),
    (("bott", "--spin", "Dplus", "--n", "3", "--lambda", "4"), None),
    (("bott", "--spin", "Dminus", "--n", "-2", "--lambda", "1"), None),
    # dim
    (("dim", "--type", "G2", "--weight", "1,0"), None),
    (("dim", "--type", "E8", "--weight", "0,0,0,0,0,0,0,1"), None),
    (("dim", "--type", "B3", "--weight=eps:3/2,1/2,1/2"), None),
    (("dim", "--type", "F4", "--weight", "1,1,1,1"), None),
    (("dim", "--type", "C2", "--weight=eps:1/2,0"), None),
    (("dim", "--type", "C2", "--weight=eps:1/3,0"), None),
    (("dim", "--type", "B3", "--weight=foo:1,0"), None),
    (("dim", "--type", "A9", "--weight", "1,0,0,0,0,0,0,0,0"), None),
    (("dim", "--type", "D1", "--weight", "1"), None),
    (("dim", "--type", "E5", "--weight", "1,0,0,0,0"), None),
    (("dim", "--type", "2G", "--weight", "1,0"), None),
    (("dim", "--type", "", "--weight", "1"), None),
    (("dim", "--type", "G2"), None),
    # mults
    (("mults", "--type", "G2", "--weight", "0,1"), None),
    (("mults", "--type", "B2", "--weight", "eps:3/2,1/2"), None),
    (("mults", "--type", "G2", "--weight", "2,1", "--bound", "100"), None),
    (("mults", "--type", "E8", "--weight", "0,0,0,0,0,0,1,1"), None),
    # decompose
    (("decompose", "--type", "C2", "--schur", "2,2", "--weight", "eps:1,0"), None),
    (("decompose", "--type", "G2", "--weight", "1,0", "--schur", "2,1"), None),
    (("decompose", "--type", "E8", "--weight", "0,0,0,0,0,0,0,1", "--schur", "1,1"), None),
    (("decompose", "--type", "A2", "--weight", "1,1"), None),
    (("decompose", "--type", "G2", "--input", "-"), _G2_CHARACTER),
    (("decompose", "--type", "B2", "--input", "-"), json.dumps({f"eps:B2:{a}/2,{b}/2": 1 for a in (1, -1) for b in (1, -1)})),
    (("decompose", "--type", "G2", "--input", "-"), "{bad"),
    (("decompose", "--type", "G2", "--input", "-"), "[1, 2]"),
    (("decompose", "--type", "G2", "--input", "-"), '{"fund:G2:1,0": "x"}'),
    (("decompose", "--type", "G2", "--input", "-"), '{"fund::1": 1}'),
    (("decompose", "--type", "G2", "--input", "-"), '{"fund:G2:1,0": 1}'),
    (("decompose", "--type", "G2"), None),
    (("decompose", "--type", "G2", "--weight", "1,0", "--schur", "9"), None),
    (("decompose", "--type", "E8", "--weight", "1,1,0,0,0,0,0,0"), None),
    # lr
    (("lr", "--lambda", "2,1", "--mu", "1", "--nu", "1,1"), None),
    (("lr", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"), None),
    (("lr", "--lambda", "1,x", "--mu", "1", "--nu", "x"), None),
    (("lr", "--lambda", "1,3", "--mu", "1", "--nu", "1"), None),
    # skew
    (("skew", "--outer", "2,2", "--inner", "1,1"), None),
    (("skew", "--outer", "3,2,1", "--inner", "2,1"), None),
    (("skew", "--outer", "2", "--inner", "3"), None),
    (("skew", "--outer", "2,1", "--inner", "-"), None),
    # qset
    (("qset", "--variant", "minus", "--size", "4"), None),
    (("qset", "--variant", "plus", "--size", "10"), None),
    (("qset", "--variant", "minus", "--size", "8", "--oracle"), None),
    (("qset", "--variant", "plus", "--size", "6", "--oracle", "--dim-e", "6"), None),
    (("qset", "--variant", "minus", "--check", "2,1,1"), None),
    (("qset", "--variant", "plus", "--check", "3,1"), None),
    (("qset", "--variant", "minus", "--size", "7"), None),
    (("qset", "--variant", "minus", "--size", "-2", "--oracle"), None),
    (("qset", "--variant", "minus", "--size", "62"), None),
    (("qset", "--variant", "minus", "--size", "10", "--oracle", "--dim-e", "5"), None),
    (("qset", "--variant", "plus", "--size", "14", "--oracle", "--dim-e", "8"), None),
    (("qset", "--variant", "minus"), None),
    (("qset", "--variant", "other", "--size", "4"), None),
    # pleth
    (("pleth", "--k", "2", "--form", "alternating", "--dim-e", "4"), None),
    (("pleth", "--k", "3", "--form", "symmetric", "--dim-e", "3"), None),
    (("pleth", "--k", "7", "--form", "alternating", "--dim-e", "4"), None),
    (("pleth", "--k", "2", "--form", "symmetric", "--dim-e", "9"), None),
    # branch
    (("branch", "--lambda", "1,1", "--target", "sp:4"), None),
    (("branch", "--lambda", "2,1", "--target", "o:5"), None),
    (("branch", "--lambda", "2,2", "--target", "Sp(6)", "--oracle"), None),
    (("branch", "--lambda", "2,1,1", "--target", "o:5", "--oracle"), None),
    (("branch", "--lambda", "2,1", "--target", "o:4", "--oracle"), None),
    (("branch", "--lambda", "1,1,1", "--target", "o:4", "--oracle"), None),
    (("branch", "--lambda", "1,1,1", "--target", "sp:4"), None),
    (("branch", "--lambda", "2", "--target", "foo"), None),
    (("branch", "--lambda", "1", "--target", "sp:3"), None),
    (("branch", "--lambda", "1", "--target", "o:1"), None),
    (("branch", "--lambda", "11,10,9,8,7,6,5,4,3,2,1", "--target", "o:44"), None),
    # lwood
    (("lwood", "--family", "C", "--lambda", "2,2"), None),
    (("lwood", "--family", "B", "--lambda", "3,1"), None),
    (("lwood", "--family", "D", "--lambda", "-"), None),
    (("lwood", "--family", "X", "--lambda", "1"), None),
    # verify-lwood
    (("verify-lwood", "--family", "C", "--lambda", "2,2", "--n", "2"), None),
    (("verify-lwood", "--family", "B", "--lambda", "2,1", "--n", "2", "--oracle"), None),
    (("verify-lwood", "--family", "D", "--lambda", "3,1", "--n", "3"), None),
    (("verify-lwood", "--family", "D", "--lambda", "1", "--n", "1"), None),
    (("verify-lwood", "--family", "C", "--lambda", "-", "--n", "0"), None),
    (("verify-lwood", "--family", "B", "--lambda", "1,1,1", "--n", "2"), None),
    (("verify-lwood", "--family", "C", "--lambda", "9,8,7,6,5,4,3,2,1", "--n", "9"), None),
    # spinor
    (("spinor", "--family", "Dfull", "--n", "2"), None),
    (("spinor", "--family", "B", "--n", "3"), None),
    (("spinor", "--family", "Dplus", "--n", "1"), None),
    (("spinor", "--family", "Dfull", "--n", "9"), None),
    (("spinor", "--family", "B", "--n", "0"), None),
    # verify-spinor
    (("verify-spinor", "--family", "B", "--n", "2", "--lambda", "2,1"), None),
    (("verify-spinor", "--family", "Dplus", "--n", "3", "--lambda", "2,1"), None),
    (("verify-spinor", "--family", "Dfull", "--n", "2", "--lambda", "1"), None),
    (("verify-spinor", "--family", "B", "--n", "-1", "--lambda", "-"), None),
    (("verify-spinor", "--family", "B", "--n", "0", "--lambda", "1"), None),
    (("verify-spinor", "--family", "B", "--n", "0", "--lambda", "-"), None),
    (("verify-spinor", "--family", "Dminus", "--n", "-1", "--lambda", "-"), None),
    (("verify-spinor", "--family", "Dminus", "--n", "0", "--lambda", "1"), None),
    (("verify-spinor", "--family", "Dfull", "--n", "1", "--lambda", "1"), None),
    (("verify-spinor", "--family", "Dplus", "--n", "1", "--lambda", "-"), None),
    (("verify-spinor", "--family", "Dplus", "--n", "2", "--lambda", "1,1,1"), None),
    (("verify-spinor", "--family", "B", "--n", "9", "--lambda", "1"), None),
    # bracket
    (("bracket", "--case", "G2", "--lambda", "3,1"), None),
    (("bracket", "--case", "SOB(2)", "--lambda", "2,1"), None),
    (("bracket", "--case", "OD(3)", "--lambda", "2,1,1"), None),
    (("bracket", "--case", "E7_6", "--lambda", "1"), None),
    (("bracket", "--case", "E8_7", "--lambda", "3,2,2,1,1,1,1"), None),
    (("bracket", "--case", "F4_6", "--lambda", "2,1,1"), None),
    (("bracket", "--case", "G2", "--lambda", "1,1,1"), None),
    (("bracket", "--case", "OD(1)", "--lambda", "1"), None),
    (("bracket", "--case", "X9", "--lambda", "1"), None),
    # koszul
    (("koszul", "--form", "alternating", "--m", "3", "--i", "2"), None),
    (("koszul", "--form", "symmetric", "--m", "2", "--i", "3"), None),
    (("koszul", "--form", "alternating", "--m", "-2", "--i", "1"), None),
    (("koszul", "--form", "symmetric", "--m", "2", "--i", "4"), None),
    # slice
    (("slice", "--case", "E6_3", "--degree", "2"), None),
    (("slice", "--case", "G2", "--degree", "3"), None),
    (("slice", "--case", "OD(2)", "--degree", "2"), None),
    (("slice", "--case", "F4_6", "--degree", "3"), None),
    (("slice", "--case", "SpC(2)", "--degree", "3"), None),
    (("slice", "--case", "E6_3", "--degree", "13"), None),
    (("slice", "--case", "SpC(2)", "--degree", "-1"), None),
    (("slice", "--case", "SpC(x)", "--degree", "1"), None),
    (("slice", "--case", "SOB", "--degree", "1"), None),
    (("slice", "--case", "G2(2)", "--degree", "1"), None),
    # g2-resolution
    (("g2-resolution",), None),
    # betti
    (("betti", "--case", "g2-y2"), None),
    (("betti", "--case", "g2-y1"), None),
    (("betti", "--case", "e6-cone"), None),
    (("betti", "--case", "f4-cone"), None),
    (("betti", "--case", "e8-start"), None),
    (("betti", "--case", "g2-y2-char2"), None),
    (("betti", "--case", "koszul:alternating:3"), None),
    (("betti", "--case", "koszul:symmetric:2"), None),
    (("betti", "--case", "koszul:foo:3"), None),
    (("betti", "--case", "koszul:alternating"), None),
    (("betti", "--case", "koszul:alternating:-3"), None),
    (("betti", "--case", "nothing"), None),
    # hilbert
    (("hilbert", "--case", "g2-y2", "--codim", "5"), None),
    (("hilbert", "--case", "g2-y2-char2", "--codim", "5"), None),
    (("hilbert", "--case", "g2-y1", "--codim", "7"), None),
    (("hilbert", "--case", "e6-cone", "--codim", "10"), None),
    (("hilbert", "--case", "f4-cone", "--codim", "10"), None),
    (("hilbert", "--case", "g2-y2", "--codim", "4"), None),
    (("hilbert", "--case", "g2-y2", "--codim", "-1"), None),
    (("hilbert", "--case", "e8-start", "--codim", "3"), None),
    (("hilbert", "--case", "e8-start", "--codim", "1"), None),
    (("hilbert", "--case", "koszul:alternating:3", "--codim", "3"), None),
    # audit
    (("audit", "--case", "g2-y2"), None),
    (("audit", "--case", "g2-y1"), None),
    (("audit", "--case", "e6-cone"), None),
    (("audit", "--case", "f4-cone"), None),
    (("audit", "--case", "e8-start"), None),
    (("audit", "--case", "nothing"), None),
    # suite
    (("suite",), None),
    (("suite", "--name", "koszul"), None),
    (("suite", "--name", "nothing"), None),
    # no subcommand, and an unknown one
    ((), None),
    (("no-such-command",), None),
]


def commands():
    """Every corpus command as (argv, stdin): each of the list in text and
    JSON, then `--help` of the program and of every subcommand."""
    out = [(list(argv) + fmt, stdin) for argv, stdin in _COMMANDS for fmt in ([], ["--format", "json"])]
    out.append((["--help"], None))
    out.extend(([name, "--help"], None) for name, *_ in cli.SUBCOMMANDS)
    return out


def mask(argv, text: str) -> str:
    """`suite` output with its timings masked; any other output as it is."""
    if argv[:1] != ["suite"]:
        return text
    text = re.sub(r'"seconds": [0-9.e-]+', '"seconds": "#"', text)
    return re.sub(r" \([0-9.]+s\): ", " (#s): ", text)


def replay(argv, stdin=None) -> dict:
    """One in-process `cli.run`: its exit code and its masked stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved_stdin
    fed = {} if stdin is None else {"stdin": stdin}
    return {"argv": list(argv), **fed, "code": code, "stdout": mask(argv, out.getvalue()), "stderr": mask(argv, err.getvalue())}


def load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def main() -> None:
    os.environ.pop("LITTLEWOOD_DIM_BOUND", None)
    os.environ["COLUMNS"] = COLUMNS
    with CORPUS.open("w") as f:
        for argv, stdin in commands():
            f.write(json.dumps(replay(argv, stdin), ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
