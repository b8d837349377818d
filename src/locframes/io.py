"""Binary containers with JSON sidecars, plus report and CSV writers.

Arrays go into ``<base>.npy`` in column-major layout; everything the
array does not carry (index geometry, constructor parameters, space
specs) lives in ``<base>.json``.  All writers are deterministic so that
identical runs produce byte-identical artifacts.
"""

import json
from pathlib import Path

import numpy as np

from .errors import InputFileError
from .frames import Frame, gabor_lattice
from .indexing import IndexSet


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def save_json(obj, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"cannot serialize {type(x)}")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    return path


# bytes of the array held in memory at a time while a container is written
WRITE_CHUNK_BYTES = 1 << 22


def save_array(base, arr, sidecar):
    """Array container: <base>.npy (column-major) + <base>.json.

    The bytes are those of ``np.save(np.asfortranarray(arr))``, written a
    few columns at a time instead of from a full column-major copy.
    """
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    arr = np.atleast_1d(arr)   # as np.asfortranarray does
    header = np.lib.format.header_data_from_array_1_0(arr)
    # a column-major array with at most one axis longer than 1 (or none
    # at all) is row-major too, and np.save records it as such
    header["fortran_order"] = arr.size > 0 and sum(n > 1 for n in arr.shape) > 1
    # rows of ``flat``, in order, are the file's data in order
    flat = arr.T if header["fortran_order"] else arr
    step = max(1, WRITE_CHUNK_BYTES // max(1, flat[:1].nbytes))
    with open(base.with_suffix(".npy"), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, len(flat), step):
            fh.write(flat[start:start + step].tobytes())
    save_json(sidecar, base.with_suffix(".json"))
    return base


def load_array(base):
    """The array and the sidecar of a container; a missing, truncated or
    unparsable file, or a NaN or infinite entry, is an ``InputFileError``."""
    base = Path(base)
    try:
        arr, sidecar = np.load(base.with_suffix(".npy")), load_json(base.with_suffix(".json"))
    except FileNotFoundError as err:
        raise InputFileError(f"no container at {base}: {err.filename} is missing") from err
    except ValueError as err:
        raise InputFileError(f"unreadable container at {base}: {err}") from err
    if not isinstance(sidecar, dict):
        raise InputFileError(f"{base.with_suffix('.json')} must hold a JSON object")
    if np.issubdtype(arr.dtype, np.inexact) and not np.isfinite(arr).all():
        raise InputFileError(f"{base.with_suffix('.npy')} holds NaN or infinite entries")
    return arr, sidecar


def save_frame(base, frame: Frame):
    sidecar = {
        "container": "frame",
        "name": frame.name,
        "meta": frame.meta,
        "index_set": frame.index_set.to_dict(),
    }
    return save_array(base, frame.vectors, sidecar)


def load_frame(base):
    """The frame in a container; a Gabor frame is recognized by ``gabor_lattice``."""
    vectors, sidecar = load_array(base)
    if sidecar.get("container") != "frame":
        raise InputFileError(f"{base} is not a frame container")
    try:
        index_set = IndexSet.from_dict(sidecar["index_set"])
        name = sidecar["name"]
        meta = dict(sidecar.get("meta", {}))
    except (KeyError, TypeError, ValueError) as err:
        raise InputFileError(f"{base} has a malformed frame sidecar: {err!r}") from err
    if not isinstance(name, str):
        raise InputFileError(f"{base} has a frame name {name!r} that is not a string")
    return Frame(vectors, index_set, name=name, meta=meta,
                 lattice=gabor_lattice(vectors, meta))


def save_galerkin_matrix(base, gm, extra=None):
    sidecar = {
        "container": "galerkin_matrix",
        "left_frame": gm.left_frame.name,
        "right_frame": gm.right_frame.name,
        "shape": list(gm.shape),
        "ambient_dim": gm.rank_bound,
    }
    if gm.domain_space is not None:
        sidecar["domain_space"] = gm.domain_space.to_dict()
    if gm.codomain_space is not None:
        sidecar["codomain_space"] = gm.codomain_space.to_dict()
    if extra:
        sidecar.update(extra)
    return save_array(base, gm.entries, sidecar)


def shells_to_csv(path, fit):
    return save_csv(path, ["distance", "max_abs"],
                    [(d, m) for d, m in fit.shell_maxima])


def report_levels_csv(path, report):
    rows = [
        (lv.size, lv.residual,
         lv.error if lv.error is not None else float("nan"),
         lv.inverse_norm if lv.inverse_norm is not None else float("nan"),
         lv.iterations)
        for lv in report.levels
    ]
    return save_csv(path, ["N", "residual", "error", "inverse_norm", "iterations"],
                    rows)
