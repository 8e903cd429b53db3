"""Reading and writing grid fields, and the output formats they share.

Two formats, both with a JSON sidecar describing the grid:

* raw binary: little-endian float64 node values in C order, sidecar at
  path + ".json";
* CSV: header row then one row per node with index, coordinates, and the
  value printed with FLOAT_FMT.

Floats print with FLOAT_FMT, %.17g (lossless for float64), and JSON files,
sidecars included, are written by write_json with sorted keys.  A sidecar
that is not a JSON object holding a "domain" object raises OSError naming
the file; a domain object that Domain.from_dict rejects raises DomainError.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .energy import ScalarField
from .geometry import Domain

FLOAT_FMT = "%.17g"


def _sidecar_path(path: str) -> str:
    return path + ".json"


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_sidecar(domain: Domain, path: str) -> None:
    meta = {
        "dim": domain.dim,
        "n": domain.n,
        "h": domain.h,
        "shape": list(domain.node_shape),
        "domain": domain.to_dict(),
    }
    write_json(_sidecar_path(path), meta)


def _read_sidecar(path: str) -> Domain:
    sidecar = _sidecar_path(path)
    with open(sidecar, "r", encoding="utf-8") as f:
        meta = json.load(f)
    if not isinstance(meta, dict) or not isinstance(meta.get("domain"), dict):
        raise OSError(f"{sidecar}: expected a JSON object holding a domain object")
    return Domain.from_dict(meta["domain"])


def save_binary(field: ScalarField, path: str) -> None:
    field.values.astype("<f8", copy=False).tofile(path)
    _write_sidecar(field.domain, path)


def load_binary(path: str) -> ScalarField:
    domain = _read_sidecar(path)
    values = np.fromfile(path, dtype="<f8")
    expected = int(np.prod(domain.node_shape))
    if values.size != expected:
        raise OSError(
            f"{path}: expected {expected} float64 values, found {values.size}"
        )
    return ScalarField(domain, values.reshape(domain.node_shape))


def save_csv(field: ScalarField, path: str) -> None:
    domain = field.domain
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if domain.dim == 1:
            writer.writerow(["index", "x", "value"])
            for i, (x, v) in enumerate(zip(domain.nodes_x, field.values)):
                writer.writerow([i, FLOAT_FMT % x, FLOAT_FMT % v])
        else:
            writer.writerow(["index", "x", "y", "value"])
            flat_x = domain.nodes_x.ravel()
            flat_y = domain.nodes_y.ravel()
            flat_v = field.values.ravel()
            for i in range(flat_v.size):
                writer.writerow(
                    [i, FLOAT_FMT % flat_x[i], FLOAT_FMT % flat_y[i], FLOAT_FMT % flat_v[i]]
                )
    _write_sidecar(field.domain, path)


def load_csv(path: str) -> ScalarField:
    """Read a CSV field; every node index in [0, size) must appear exactly once."""
    domain = _read_sidecar(path)
    values = np.empty(int(np.prod(domain.node_shape)))
    seen = np.zeros(values.size, dtype=bool)
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, ["value"])  # an empty file has no data rows
        value_col = header.index("value")
        for row in reader:
            if len(row) <= value_col:
                raise OSError(f"{path}: line {reader.line_num} has no value column")
            i = int(row[0])
            if not 0 <= i < values.size or seen[i]:
                raise OSError(f"{path}: node index {i} is repeated or outside 0..{values.size - 1}")
            seen[i] = True
            values[i] = float(row[value_col])
    # Each row read has its own node, so the nodes seen count the rows.
    if not seen.all():
        raise OSError(f"{path}: expected {values.size} rows, found {np.count_nonzero(seen)}")
    return ScalarField(domain, values.reshape(domain.node_shape))


def load_field(path: str) -> ScalarField:
    """Dispatch on extension: .csv loads CSV, anything else raw binary."""
    if path.endswith(".csv"):
        return load_csv(path)
    return load_binary(path)
