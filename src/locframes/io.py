"""Binary containers with JSON sidecars, plus report and CSV writers.

Arrays go into ``<base>.npy`` in column-major layout; everything the
array does not carry (index geometry, constructor parameters, the
ambient dimension) lives in ``<base>.json``.  All writers are
deterministic so that identical runs produce byte-identical artifacts.
"""

import json
from pathlib import Path

import numpy as np

from .errors import InputFileError, LocframesError
from .frames import Frame, gabor_meta
from .galerkin import LinearOperator, _walnut_sides, galerkin_columns, galerkin_matrix
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


def save_blocks(base, shape, dtype, blocks, sidecar):
    """Array container <base>.npy + <base>.json of the array of this shape and
    dtype whose last-axis blocks, in order, are ``blocks``: the bytes of
    ``np.save(np.asfortranarray(arr))``, with one block in memory at a time."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    # an array with at most one axis longer than 1 (or none at all) is
    # row-major too, and np.save records it as such
    header = {"shape": tuple(shape), "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
              "fortran_order": 0 not in shape and sum(n > 1 for n in shape) > 1}
    with open(base.with_suffix(".npy"), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for block in blocks:   # a column-major block's transpose is in file order
            fh.write(np.asfortranarray(block, dtype=dtype).T)
            del block   # freed before the next block is formed
    save_json(sidecar, base.with_suffix(".json"))
    return base


def save_array(base, arr, sidecar):
    """``save_blocks`` of ``arr`` a few columns (last-axis slices) at a time."""
    arr = np.atleast_1d(arr)   # as np.asfortranarray does
    step = max(1, WRITE_CHUNK_BYTES // max(1, arr[..., :1].nbytes))
    blocks = (arr[..., i:i + step] for i in range(0, arr.shape[-1], step))
    return save_blocks(base, arr.shape, arr.dtype, blocks, sidecar)


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
    """A Gabor frame whose meta names its lattice (``gabor_meta``) is stored as
    its window, flagged ``"window": true`` in the sidecar; any other as its vectors."""
    sidecar = {
        "container": "frame",
        "name": frame.name,
        "meta": frame.meta,
        "index_set": frame.index_set.to_dict(),
    }
    if gabor_meta(frame.meta) == ((frame.ambient_dim, frame.size), frame.lattice):
        return save_array(base, frame.window, {**sidecar, "window": True})
    return save_array(base, frame.vectors, sidecar)


def load_frame(base):
    """The frame in a container: of a window, or of vectors (a dense frame)."""
    arr, sidecar = load_array(base)
    if sidecar.get("container") != "frame":
        raise InputFileError(f"{base} is not a frame container")
    window = sidecar.get("window", False)
    try:
        meta = dict(sidecar.get("meta", {}))
        shape, lattice = gabor_meta(meta) or (None, None)
        index_set = IndexSet.from_dict(sidecar["index_set"], arr.shape[-1] if window is False
                                       else shape and shape[1])
        name = sidecar["name"]
    except (IndexError, KeyError, TypeError, ValueError) as err:
        raise InputFileError(f"{base} has a malformed frame sidecar: {err!r}") from err
    if not isinstance(name, str):
        raise InputFileError(f"{base} has a frame name {name!r} that is not a string")
    if window is False:
        return Frame(arr, index_set, name=name, meta=meta)
    if (window is not True or lattice is None or arr.shape != shape[:1]
            or arr.dtype.kind not in "fc" or not arr.any() or len(index_set) != shape[1]):
        raise InputFileError(f"{base}: a window container holds a Gabor meta on K >= n points, "
                             f"a nonzero float or complex window of n entries and K indices")
    return Frame(arr, index_set, name=name, meta=meta, lattice=lattice)


def galerkin_sidecar(left: Frame, right: Frame, extra=None):
    """The sidecar of the Galerkin matrix of an operator against (left, right)."""
    return {
        "container": "galerkin_matrix",
        "left_frame": left.name,
        "right_frame": right.name,
        "shape": [left.size, right.size],
        "ambient_dim": min(left.ambient_dim, right.ambient_dim),
        **(extra or {}),
    }


def save_galerkin_matrix(base, gm, extra=None):
    """The container of a ``GalerkinMatrix``: of a pair on one lattice with its operator
    held on a side (``galerkin._walnut_sides``) its generators, the rows of a 3 x n
    array: both windows and the operator's held vector, ``"generators": true`` with the
    lattice, the side and both index sets in the sidecar; of any other its K x K entries."""
    left, right, op = gm.left_frame, gm.right_frame, gm.generator
    sidecar = galerkin_sidecar(left, right, extra)
    if _walnut_sides([op], (left, right)) is None:
        return save_blocks(base, *galerkin_columns(op, left, right), sidecar)
    return save_array(base, np.stack([left.window, right.window, op.held]), {
        **sidecar, "generators": True, "lattice": list(left.lattice), "side": op.side,
        "left_index_set": left.index_set.to_dict(), "right_index_set": right.index_set.to_dict()})


def galerkin_from(base, arr, sidecar):
    """The matrix in a loaded Galerkin container: a generator container's
    ``GalerkinMatrix``, whose entries are built on first use, else the array."""
    if "generators" not in sidecar:
        return arr
    try:
        n, (a, b), side = sidecar["ambient_dim"], sidecar["lattice"], sidecar["side"]
        if (sidecar["generators"] is not True or arr.shape != (3, n)
                or side not in ("time", "fourier") or {type(a), type(b)} != {int}):
            raise ValueError("a 3 x n array, a side and integer steps are needed")
        left, right = (Frame(window, IndexSet.from_dict(sidecar[f"{key}_index_set"],
                                                        (n // a) * (n // b)),
                             lattice=(a, b), name=str(sidecar[f"{key}_frame"]))
                       for window, key in zip(arr, ("left", "right")))
        # the windows make the stack complex: a held vector with no imaginary part was real
        held = arr[2] if arr[2].imag.any() else arr[2].real
        return galerkin_matrix(LinearOperator(held, str(sidecar.get("operator", "op")), side),
                               left, right)
    except (ArithmeticError, KeyError, TypeError, ValueError, LocframesError) as err:
        raise InputFileError(f"{base} is not a valid generator container: {err!r}") from err


def load_galerkin(base):
    return galerkin_from(base, *load_array(base))


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
