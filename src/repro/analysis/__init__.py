"""Project-specific static analysis: ``repro lint``.

An AST lint engine (:mod:`repro.analysis.engine`) plus a rule pack
(:mod:`repro.analysis.rules`) that enforce the repo's contracts --
determinism, serve hygiene, logging, registry and config
discipline -- at CI time.  See ``docs/development.md`` for the rule
catalogue and the ``# repro: allow[RULE-ID] reason=...`` suppression
syntax.

Run it as ``python -m repro.analysis [paths...]`` or ``repro lint``.
"""

from repro.analysis.engine import (
    Finding,
    Report,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "default_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
