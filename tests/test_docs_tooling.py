"""Documentation tooling: the API-reference generator, and the docs'
list of observer hooks."""

import re
import sys
from pathlib import Path

from repro.net.simulator import OBSERVER_HOOKS

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_api_docs  # noqa: E402

#: a hook-shaped name: ``on_`` and lower-case words, not inside an
#: identifier (``_on_send`` is a handler, not a hook)
_HOOK_NAME = re.compile(r"(?<![A-Za-z0-9_])on_[a-z]+(?:_[a-z]+)*")


def test_renders_every_module():
    text = gen_api_docs.render()
    for module in ("repro.core.atomic", "repro.avid.disperse",
                   "repro.crypto.threshold", "repro.baselines.goodson",
                   "repro.net.simulator", "repro.store.blobstore",
                   "repro.lint.engine", "repro.lint.rules.quorum"):
        assert f"## `{module}`" in text, module


def test_documents_key_classes_and_functions():
    text = gen_api_docs.render()
    for symbol in ("class `AtomicNSServer", "class `ShoupThresholdScheme",
                   "class `BlobStore", "`build_cluster(",
                   "`check_atomicity("):
        assert symbol in text, symbol


def test_no_undocumented_public_classes():
    """Every public class in the library carries a docstring."""
    text = gen_api_docs.render()
    assert "*(undocumented)*" not in text


def test_writes_output(tmp_path):
    output = tmp_path / "API.md"
    gen_api_docs.main(output)
    assert output.read_text().startswith("# API reference")


def test_committed_docs_in_sync():
    """docs/API.md matches the current code (regenerate with
    ``python tools/gen_api_docs.py`` when this fails)."""
    committed = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert committed == gen_api_docs.render()


def test_docs_name_exactly_the_observer_hooks():
    """The hook table of OBSERVABILITY.md §2.1 lists exactly
    ``OBSERVER_HOOKS``, and no document under ``docs/`` names a hook
    the simulator does not call."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
        encoding="utf-8")
    section = text.split("### 2.1 ", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines()
            if line.startswith("| `on_")]
    assert sorted(name for row in rows
                  for name in _HOOK_NAME.findall(row.split("|")[1])) \
        == sorted(OBSERVER_HOOKS)
    for path in sorted((REPO_ROOT / "docs").glob("*.md")):
        named = set(_HOOK_NAME.findall(path.read_text(encoding="utf-8")))
        assert named <= set(OBSERVER_HOOKS), (path.name,
                                              named - set(OBSERVER_HOOKS))
