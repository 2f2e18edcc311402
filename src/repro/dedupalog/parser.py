"""A small parser for the textual form of RULES programs.

The supported syntax is a pragmatic subset of Dedupalog sufficient for the
rules used in the paper.  One rule per line; ``%`` starts a comment.

Hard rules::

    equals(x, y) <= AuthorEQ(x, y).            % hard external equality

Soft positive rules (the similarity/coauthor family)::

    equals(x, y) <- similar(x, y, 3).
    equals(x, y) <- similar(x, y, 2), coauthor(x, c1), coauthor(y, c2), equals(c1, c2).
    equals(x, y) <- similar(x, y, 1), coauthor(x, c1), coauthor(y, c2), equals(c1, c2),
                    coauthor(x, c3), coauthor(y, c4), equals(c3, c4).

The number of ``equals`` atoms in the body becomes the coauthor-support
requirement (distinctness between support pairs is implicit, as in the
paper's rule 3).

Soft negative rules::

    !equals(x, y) <- no_shared_coauthor(x, y).
    !equals(x, y) <- low_similarity(x, y, 1).

``<=`` marks hard rules, ``<-`` soft rules, a leading ``!`` marks negative
rules.  Whitespace and the trailing period are optional; a line ending in a
comma continues on the next one.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Tuple

from ..exceptions import RuleParseError
from .ast import DedupalogProgram, HardEqualityRule, SoftNegativeRule, SoftSimilarityRule

_ATOM_PATTERN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<args>[^)]*)\)")
_SIMILAR_LEVEL_PATTERN = re.compile(r"similar\s*\([^,]+,[^,]+,\s*(?P<level>[123])\s*\)")


def _strip_comment(line: str) -> str:
    position = line.find("%")
    return line if position < 0 else line[:position]


def _split_head_body(line: str) -> Tuple[str, str, str]:
    """Return (head, operator, body) where operator is '<=' or '<-'."""
    for operator in ("<=", "<-"):
        if operator in line:
            head, body = line.split(operator, 1)
            return head.strip(), operator, body.strip().rstrip(".").strip()
    raise RuleParseError(f"rule line has no '<=' or '<-' operator: {line!r}")


def parse_rule_line(line: str, index: int) -> Optional[object]:
    """Parse one rule line into a rule object, or ``None`` for blank lines."""
    stripped = _strip_comment(line).strip()
    if not stripped:
        return None
    head, operator, body = _split_head_body(stripped)

    negative = head.startswith("!")
    head_name_match = _ATOM_PATTERN.match(head.lstrip("!").strip())
    if head_name_match is None or head_name_match.group("name") != "equals":
        raise RuleParseError(f"rule {index}: head must be an equals(...) atom, got {head!r}")

    body_atoms = _ATOM_PATTERN.findall(body)
    if not body_atoms:
        raise RuleParseError(f"rule {index}: empty body in {line!r}")
    body_predicates = [name for name, _ in body_atoms]

    if negative:
        if body_predicates[0] == "no_shared_coauthor":
            return SoftNegativeRule(f"neg_{index}", kind="no_shared_coauthor")
        if body_predicates[0] == "low_similarity":
            arguments = [arg.strip() for arg in body_atoms[0][1].split(",")]
            level = arguments[2] if len(arguments) > 2 else "1"
            if level not in ("1", "2", "3"):
                raise RuleParseError(
                    f"rule {index}: low_similarity level must be 1, 2 or 3, got {level!r}")
            return SoftNegativeRule(f"neg_{index}", kind="low_similarity",
                                    threshold_level=int(level))
        raise RuleParseError(
            f"rule {index}: unsupported negative-rule body predicate {body_predicates[0]!r}"
        )

    if operator == "<=":
        # Hard rule: a single non-equals body predicate naming an external relation.
        external = [name for name in body_predicates if name != "equals"]
        if len(external) != 1:
            raise RuleParseError(
                f"rule {index}: hard rules must have exactly one external body atom"
            )
        return HardEqualityRule(f"hard_{index}", source_relation=external[0])

    # Soft positive rule: similarity level + number of equals support atoms.
    level_match = _SIMILAR_LEVEL_PATTERN.search(body)
    if level_match is None:
        raise RuleParseError(
            f"rule {index}: soft rules must contain a similar(x, y, level) atom"
        )
    level = int(level_match.group("level"))
    support = sum(1 for name in body_predicates if name == "equals")
    return SoftSimilarityRule(f"soft_{index}", level=level, min_coauthor_support=support)


def _rule_lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(first line number, rule text)`` with continuation lines joined."""
    rule, first = "", 0
    for number, line in enumerate(text.splitlines(), start=1):
        first = first if rule else number
        rule = f"{rule} {_strip_comment(line)}".strip()
        if not rule.endswith(","):
            yield first, rule
            rule = ""
    if rule:
        raise RuleParseError(f"rule {first}: continuation runs off the end: {rule!r}")


def parse_program(text: str, transitive_closure: bool = True) -> DedupalogProgram:
    """Parse a multi-line RULES program into a :class:`DedupalogProgram`."""
    program = DedupalogProgram(transitive_closure=transitive_closure)
    for index, line in _rule_lines(text):
        rule = parse_rule_line(line, index)
        if rule is None:
            continue
        if isinstance(rule, HardEqualityRule):
            program.hard_rules.append(rule)
        elif isinstance(rule, SoftSimilarityRule):
            program.soft_rules.append(rule)
        elif isinstance(rule, SoftNegativeRule):
            program.negative_rules.append(rule)
    program.validate()
    return program


#: The Appendix-B program in textual form (equivalent to
#: :func:`repro.dedupalog.ast.paper_rules_program`).
PAPER_RULES_TEXT = """
% Appendix B, RULES matcher
equals(e1, e2) <- similar(e1, e2, 3).
equals(e1, e2) <- similar(e1, e2, 2), coauthor(e1, c1), coauthor(e2, c2), equals(c1, c2).
equals(e1, e2) <- similar(e1, e2, 1), coauthor(e1, c1), coauthor(e2, c2), equals(c1, c2), coauthor(e1, c3), coauthor(e2, c4), equals(c3, c4).
"""
