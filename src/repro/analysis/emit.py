"""Output formats for analyzer findings: text, JSON, and SARIF 2.1.0.

The SARIF output is the minimal subset GitHub code scanning ingests:
one run, one driver, rule metadata, and per-result physical locations.
Whole-program findings attach their call chain as ``relatedLocations``
so every hop is clickable in a SARIF viewer.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.analysis.core import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def render_text(violations: Sequence[Violation]) -> str:
    return "\n".join(v.render() for v in violations)


def render_json(violations: Sequence[Violation],
                stats: Optional[Dict[str, int]] = None) -> str:
    payload: Dict[str, object] = {
        "findings": [v.to_dict() for v in violations],
        "count": len(violations),
    }
    if stats is not None:
        payload["stats"] = dict(stats)
    return json.dumps(payload, indent=2, sort_keys=True)


def _location(path: str, line: int, col: int = 1,
              message: Optional[str] = None) -> Dict[str, object]:
    loc: Dict[str, object] = {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": max(line, 1),
                       "startColumn": max(col, 1)},
        }
    }
    if message:
        loc["message"] = {"text": message}
    return loc


def render_sarif(violations: Sequence[Violation],
                 rule_descriptions: Optional[Dict[str, str]] = None) -> str:
    rule_descriptions = rule_descriptions or {}
    rule_ids = sorted({v.rule for v in violations} | set(rule_descriptions))
    rules = [{"id": rule_id,
              "shortDescription": {
                  "text": rule_descriptions.get(rule_id, rule_id)}}
             for rule_id in rule_ids]
    results = []
    for violation in violations:
        result: Dict[str, object] = {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [_location(violation.path, violation.line,
                                    violation.col)],
            "fingerprints": {"simlint/v1": violation.fingerprint()},
        }
        if violation.chain:
            result["relatedLocations"] = [
                _location(path, line, message=symbol)
                for symbol, path, line in violation.chain]
        results.append(result)
    sarif = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "simlint",
                "informationUri":
                    "docs/static_analysis.md",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True)
