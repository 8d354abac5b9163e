"""Answer extractor for one rootinv CLI job.

Reads the job's whole stdout from stdin and prints one JSON object:
``{"fields": {...}, "stdout_sha256": "..."}``.  ``fields`` maps each
answer-carrying payload field to its canonical JSON (or that text's SHA-256
when it is long).  Fields that describe how an answer was
reached (method labels, notes, timings) are left out on purpose, so a change
that keeps every answer keeps every field.  run.py compares the result with
perfbench/answers.json.

This runs as its own process so that the runner never holds a job's output.
"""

from __future__ import annotations

import hashlib
import json
import sys

ANSWER_FIELDS = {
    "classgroup": ["class_group", "invariant_factors", "diagonalizable_reflection_rank", "weight_quotient"],
    "invariants": [
        "monoid",
        "hilbert_basis",
        "generator_count",
        "primary_generators",
        "secondary_generators",
        "free_coordinates",
        "hironaka_cells",
        "relations.generators",
        "relations.binomials",
        "relations.count",
        "relations.fixture.equivalent",
        "relations.fixture.all_relations_verify",
        "expansion",
    ],
    "hilbert": ["coefficients", "basis", "count"],
}


def digest(value) -> str:
    """Canonical JSON of ``value``; past 64 characters, its SHA-256 instead."""
    canon = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return canon if len(canon) <= 64 else "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def answer_fields(out: bytes) -> dict[str, str]:
    text = out.decode(errors="replace")
    lines = text.splitlines()
    if lines and lines[-1].startswith("selfcheck:"):
        # selfcheck prints one PASS/FAIL line per check, then the summary line.
        return {"selfcheck.summary": lines[-1], "selfcheck.checks": digest(lines[:-1])}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {"unparsable": digest(text)}
    fields = {}
    for path in ANSWER_FIELDS.get(doc["command"].split()[0], []):
        node = doc["payload"]
        for part in path.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if node is not None:
            fields[path] = digest(node)
    return fields


def main() -> None:
    out = sys.stdin.buffer.read()
    json.dump({"fields": answer_fields(out), "stdout_sha256": hashlib.sha256(out).hexdigest()}, sys.stdout)


if __name__ == "__main__":
    main()
