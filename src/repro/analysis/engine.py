"""The AST lint engine behind ``repro lint``.

The repo's load-bearing guarantees -- byte-identical determinism, the
serve layer's error taxonomy and asyncio discipline -- are
*conventions*: a stray ``np.random.default_rng()`` or a ``time.sleep``
inside an ``async def`` silently voids contracts the equivalence
suites can only catch after the fact.  This engine walks the
package's ASTs and turns those conventions into machine-checked rules
with stable ids, so a violation fails CI at review time instead of
surfacing as a nondeterministic artifact three PRs later.

Pieces:

- :class:`Rule` -- the protocol a check implements: a stable ``id``, a
  one-line ``title``, a ``hint`` telling the author how to fix it,
  path-scoped applicability (``applies_to``) and an AST visitor
  (``check``) yielding raw findings.
- :class:`Finding` -- one structured diagnostic: file, line, column,
  rule id, message, fix hint, and (after suppression matching) whether
  an inline allow covered it.
- Inline suppression -- ``# repro: allow[RULE-ID] reason=...`` on the
  flagged line (or on a comment-only line directly above it).  The
  ``reason=`` is *mandatory*: a reason-less allow suppresses nothing
  and is itself reported as ``SUP001``.  Stale allows that no longer
  match any finding are reported as ``SUP002`` so suppressions cannot
  outlive the code they excused.

The engine is stdlib-only (``ast`` + ``tokenize``) and deliberately
knows nothing about the individual rules; the rule pack lives in
:mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path, PurePosixPath
from collections.abc import Iterable, Iterator, Sequence
from typing import Protocol, runtime_checkable

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "PathScopedRule",
    "Suppression",
    "Report",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "module_relpath",
    "render_text",
    "render_json",
]

#: Rule id of a malformed (reason-less / unparseable) suppression.
SUP_MALFORMED = "SUP001"
#: Rule id of a stale suppression matching no finding.
SUP_UNUSED = "SUP002"

#: Matches an allow directive ("repro: allow[DET001] reason=..." in a
#: comment) -- ids comma-separated, reason mandatory, free-form to EOL.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"(?:\s+reason=(?P<reason>\S.*))?"
)
#: Anything that *looks* like a repro directive, for malformed-directive
#: detection (e.g. a typo'd rule id or a missing ``allow``).
_DIRECTIVE_RE = re.compile(r"#\s*repro:")


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    suppressed: bool = False
    suppression_reason: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` directive."""

    line: int           # line the directive sits on
    rule_ids: tuple[str, ...]
    reason: str         # "" when missing (malformed)
    covers: tuple[int, ...]  # source lines the allow applies to


@dataclass
class FileContext:
    """Everything a rule may want to know about the file under scan.

    ``relpath`` is the path *relative to the package root* in posix
    form (``serve/service.py``, ``core/kernels.py``), so path-scoped
    rules behave identically whether the scan started from the repo
    root, from ``src/``, or from a test fixture directory.
    """

    path: str
    relpath: PurePosixPath
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        """Convenience constructor anchoring a finding to an AST node."""
        return Finding(
            rule=rule.id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


@runtime_checkable
class Rule(Protocol):
    """What a lint check implements."""

    id: str
    title: str
    hint: str

    def applies_to(self, relpath: PurePosixPath) -> bool:
        """Whether this rule scans the file at ``relpath``."""
        ...  # pragma: no cover - protocol stub

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield raw findings for one parsed file."""
        ...  # pragma: no cover - protocol stub


class PathScopedRule:
    """Base class handling the common "these subtrees only" scoping.

    ``paths`` are posix path *prefixes* relative to the package root
    (``("core/", "serve/service.py")``); empty means every file.
    ``exclude`` prefixes win over ``paths``.
    """

    id: str = "XXX000"
    title: str = ""
    hint: str = ""
    paths: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: PurePosixPath) -> bool:
        text = relpath.as_posix()
        if any(text == e or text.startswith(e) for e in self.exclude):
            return False
        if not self.paths:
            return True
        return any(text == p or text.startswith(p) for p in self.paths)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Rule {self.id}: {self.title}>"


# ----------------------------------------------------------------------
# Suppression parsing
# ----------------------------------------------------------------------
def _comment_tokens(source: str) -> list[tuple[int, str, bool]]:
    """``(line, comment_text, line_is_comment_only)`` for every comment."""
    out: list[tuple[int, str, bool]] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line_no = tok.start[0]
        text = lines[line_no - 1] if line_no - 1 < len(lines) else ""
        only = text.strip().startswith("#")
        out.append((line_no, tok.string, only))
    return out


def parse_suppressions(
    source: str, path: str
) -> tuple[list[Suppression], list[Finding]]:
    """Extract allow directives; malformed ones come back as findings."""
    allows: list[Suppression] = []
    problems: list[Finding] = []
    for line_no, comment, comment_only in _comment_tokens(source):
        if not _DIRECTIVE_RE.search(comment):
            continue
        match = _ALLOW_RE.search(comment)
        if match is None:
            problems.append(
                Finding(
                    rule=SUP_MALFORMED,
                    path=path,
                    line=line_no,
                    col=1,
                    message=f"unparseable repro directive: {comment.strip()!r}",
                    hint="write '# repro: allow[RULE-ID] reason=...'",
                )
            )
            continue
        ids = tuple(part.strip() for part in match.group("ids").split(","))
        reason = (match.group("reason") or "").strip()
        # A comment-only allow covers the next source line; an inline
        # allow covers its own line.
        covers = (line_no, line_no + 1) if comment_only else (line_no,)
        if not reason:
            problems.append(
                Finding(
                    rule=SUP_MALFORMED,
                    path=path,
                    line=line_no,
                    col=1,
                    message=(
                        "suppression for "
                        + ", ".join(ids)
                        + " is missing its mandatory reason"
                    ),
                    hint="append 'reason=<why this violation is intentional>'",
                )
            )
            continue
        allows.append(
            Suppression(line=line_no, rule_ids=ids, reason=reason, covers=covers)
        )
    return allows, problems


def apply_suppressions(
    findings: list[Finding], allows: list[Suppression], path: str
) -> list[Finding]:
    """Mark suppressed findings; report allows that matched nothing."""
    used = [False] * len(allows)
    out: list[Finding] = []
    for f in findings:
        hit = None
        for i, allow in enumerate(allows):
            if f.rule in allow.rule_ids and f.line in allow.covers:
                hit = i
                break
        if hit is None:
            out.append(f)
        else:
            used[hit] = True
            out.append(
                replace(f, suppressed=True, suppression_reason=allows[hit].reason)
            )
    for i, allow in enumerate(allows):
        if not used[i]:
            out.append(
                Finding(
                    rule=SUP_UNUSED,
                    path=path,
                    line=allow.line,
                    col=1,
                    message=(
                        "suppression for "
                        + ", ".join(allow.rule_ids)
                        + " matches no finding (stale allow)"
                    ),
                    hint="delete the directive, or move it onto the line it excuses",
                )
            )
    return out


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def module_relpath(path: str | Path) -> PurePosixPath:
    """Path relative to the ``repro`` package root (best effort).

    ``src/repro/serve/service.py`` -> ``serve/service.py``; paths with
    no ``repro`` component are returned as given (so fixtures and
    out-of-tree files still lint, just without package-scoped rules).
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return PurePosixPath(*parts[i + 1 :])
    return PurePosixPath(Path(path).as_posix())


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    relpath: PurePosixPath | None = None,
) -> list[Finding]:
    """Lint one in-memory module; ``path`` is for reporting only."""
    rel = module_relpath(path) if relpath is None else relpath
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="ENG001",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; nothing else was checked",
            )
        ]
    ctx = FileContext(
        path=path,
        relpath=rel,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    raw: list[Finding] = []
    for rule in rules:
        if rule.applies_to(rel):
            raw.extend(rule.check(ctx))
    raw.sort(key=lambda f: (f.line, f.col, f.rule))
    allows, problems = parse_suppressions(source, path)
    return apply_suppressions(raw, allows, path) + problems


def lint_file(path: str | Path, rules: Sequence[Rule]) -> list[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), rules)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: dict[Path, None] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                seen.setdefault(f, None)
        elif p.suffix == ".py":
            seen.setdefault(p, None)
    return list(seen)


@dataclass
class Report:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int

    @property
    def active(self) -> list[Finding]:
        """Findings that fail the run (everything unsuppressed)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "active": len(self.active),
            "suppressed": len(self.suppressed),
            "findings": [f.to_dict() for f in self.findings],
        }


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> Report:
    """Lint files/directories with ``rules`` (default: the full pack)."""
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f, rules))
    return Report(findings=findings, files_scanned=len(files))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_text(report: Report) -> str:
    out: list[str] = []
    for f in report.active:
        out.append(f"{f.location()}: {f.rule} {f.message}")
        if f.hint:
            out.append(f"    hint: {f.hint}")
    for f in report.suppressed:
        out.append(
            f"{f.location()}: {f.rule} suppressed ({f.suppression_reason}): "
            f"{f.message}"
        )
    out.append(
        f"{len(report.active)} finding(s), {len(report.suppressed)} suppressed, "
        f"{report.files_scanned} file(s) scanned"
    )
    return "\n".join(out)


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
