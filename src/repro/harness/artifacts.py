"""Machine-readable grid artifacts (``BENCH_<ID>.json``).

One artifact per experiment run: the full parameter set, every cell (its
coordinates, derived seed, and value) and the rendered report tables.
Serialisation is canonical — sorted keys, fixed indentation, no
timestamps or host information — so re-running the same grid with the
same seed writes byte-identical files, which is both the cache-correctness
check and what makes artifacts diffable across CI runs.

:func:`render_artifact` is the one renderer.  It writes the cells one at a
time from any iterable, so an in-memory run (:func:`write_artifact`) and a
spilled one (:func:`repro.harness.streaming.write_artifact_streaming`)
produce the same bytes, and it writes to a temporary file in the output
directory that replaces the artifact only once it is complete.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

from .runner import CellOutcome, GridResult
from .spec import ScenarioSpec, params_to_dict

__all__ = [
    "ARTIFACT_SCHEMA", "artifact_name", "cell_record", "render_artifact", "write_artifact",
]

ARTIFACT_SCHEMA = "repro-bench/1"


def artifact_name(exp_id: str) -> str:
    return f"BENCH_{exp_id.upper()}.json"


def cell_record(outcome: CellOutcome) -> dict[str, Any]:
    """One entry of an artifact's ``"cells"`` list (and one spill line)."""
    return {"coords": outcome.coords, "seed": outcome.seed, "value": outcome.value}


def render_artifact(
    path: Path,
    spec: ScenarioSpec,
    params: Any,
    cells: Iterable[dict[str, Any]],
    tables: list[Any],
) -> None:
    """Write the artifact at ``path`` from its cell records and tables.

    The bytes equal ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``
    without the cell list ever being materialised: ``"cells"`` sorts first
    among the payload keys, so each cell is rendered on its own (indented
    one level deeper) and the rest of the payload is rendered normally and
    spliced in after the list.  The file is written under a unique
    temporary name beside ``path`` and moved into place with
    ``os.replace``: a failure leaves the previous artifact untouched, and
    concurrent writers never share a file.
    """
    rest = {
        "schema": ARTIFACT_SCHEMA,
        "experiment": spec.exp_id,
        "title": spec.title,
        "params": params_to_dict(params),
        "tables": [
            {
                "title": table.title,
                "headers": list(table.headers),
                "rows": [list(row) for row in table.rows],
                "notes": list(table.notes),
            }
            for table in tables
        ],
    }
    # "{\n  <body>\n}": drop the opening brace so the body continues the
    # object the cell list starts.
    body = json.dumps(rest, sort_keys=True, indent=2)[2:]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            separator = '{\n  "cells": [\n'
            for cell in cells:
                fh.write(separator)
                separator = ",\n"
                block = json.dumps(cell, sort_keys=True, indent=2)
                # JSON strings escape newlines, so every "\n" is a line break.
                fh.write("    " + block.replace("\n", "\n    "))
            # json.dumps renders an empty list inline ("cells": []).
            fh.write("\n  ],\n" if separator == ",\n" else '{\n  "cells": [],\n')
            fh.write(body + "\n")
        os.chmod(tmp, 0o644)  # mkstemp's 0600 would make artifacts private
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_artifact(out_dir: str | Path, result: GridResult) -> Path:
    """Write the canonical artifact of an in-memory run; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact_name(result.spec.exp_id)
    cells = (cell_record(outcome) for outcome in result.outcomes)
    render_artifact(path, result.spec, result.params, cells, result.tables())
    return path
