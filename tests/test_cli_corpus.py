"""Byte identity of the CLI: every entry of the committed corpus, replayed."""

from cli_corpus import COLUMNS, commands, load, replay


def test_cli_output_matches_the_corpus(monkeypatch):
    monkeypatch.delenv("LITTLEWOOD_DIM_BOUND", raising=False)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    corpus = load()
    assert [(e["argv"], e.get("stdin")) for e in corpus] == commands(), "the command list changed: regenerate the corpus"
    changed = [(entry, got) for entry in corpus if (got := replay(entry["argv"], entry.get("stdin"))) != entry]
    assert not changed, "\n\n".join(f"{' '.join(e['argv'])}\n  corpus: {e}\n  now:    {g}" for e, g in changed[:5])
