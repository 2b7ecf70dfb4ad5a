"""Pipeline files on disk: one atomic writer, one columnar CSV writer and one
field-typed pair for the model files.

Every file a stage writes goes through `atomic_writer`, so a reader sees the
old file or the new one, never a partial write. Every CSV goes through
`write_csv`, which takes its table as columns of text and writes the bytes
the csv module's default dialect would. Every model file goes through
`write_model` and `read_model`: a dataclass's fields under its `KIND` tag,
read back through `build`. So a wrong file passed to an input option, a key
or JSON type the type does not hold, and a value its checks refuse all fail
with an error that names the file.
"""

import json
import os
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass

import numpy as np


class ArtifactError(ValueError):
    """A pipeline file is malformed or holds another kind of artifact."""


@contextmanager
def atomic_writer(path, binary=False):
    """UTF-8 text handle, without newline translation, that replaces `path`;
    with `binary`, a bytes handle.

    The handle writes to a temp file beside `path`, which `os.replace` moves
    onto `path` when the block ends; an exception removes it instead. New
    files get the mode `open(path, "w")` gives, the umask's.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", newline="", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, doc, indent=1) -> None:
    """`doc` with sorted keys, arrays as nested lists, and a final newline;
    any other value JSON cannot hold raises TypeError.

    One `json.dumps` string: at indent=None it comes from the C encoder,
    which `json.dump` never uses.
    """
    text = json.dumps(doc, indent=indent, sort_keys=True,
                      default=np.ndarray.tolist) + "\n"
    with atomic_writer(path) as fh:
        fh.write(text)


def write_csv(path, header, columns) -> None:
    """The `header` row, then row i of the equal-length str `columns` for
    each i: the bytes csv.writer's default dialect writes for that table.

    Fields are joined by "," and every row ends in "\r\n". A field that
    csv.writer would quote, one holding ",", '"', "\r" or "\n" or the lone
    field of a row left empty, raises ArtifactError. The separators are
    counted once in the joined text, not per field. The text is complete
    before the file opens, so a refused or failed table leaves `path` as it
    was.
    """
    lengths = sorted({len(column) for column in columns})
    if not header or len(columns) != len(header) or len(lengths) > 1:
        raise ArtifactError(f"{path}: {len(columns)} columns of lengths "
                            f"{lengths} under a header of {len(header)}")
    lines = [",".join(header), *map(",".join, zip(*columns))]
    text = "\r\n".join(lines) + "\r\n"
    n = len(lines)
    if (text.count(",") != (len(header) - 1) * n or text.count("\r") != n
            or text.count("\n") != n or '"' in text
            or (len(header) == 1 and "" in lines)):
        raise ArtifactError(f"{path}: a field holds a comma, quote or line "
                            "break, or is a row's lone empty field; csv "
                            "would quote it")
    with atomic_writer(path) as fh:
        fh.write(text)


def copy(src, dst) -> None:
    """The text of `src`, byte for byte, as `dst`."""
    with open(src, newline="", encoding="utf-8") as fin, atomic_writer(dst) as fout:
        fout.write(fin.read())


def write_model(path, model, indent=1) -> None:
    """The dataclass `model` as `{"kind": model.KIND, **asdict(model)}`,
    without its None fields, which `read_model` gives their None default."""
    doc = {key: value for key, value in asdict(model).items() if value is not None}
    write_json(path, {"kind": model.KIND, **doc}, indent)


def read_model(path, cls):
    """The `cls` that `write_model` wrote to `path`, through `build`."""
    doc = read_json(path, cls.KIND)
    del doc["kind"]
    with loading(path, cls.KIND):
        return build(cls, doc)


@contextmanager
def loading(path, kind):
    """Where a model is built from the `kind` JSON at `path`: its errors
    raise ArtifactError naming `path`."""
    try:
        yield
    except ArtifactError as exc:
        raise ArtifactError(f"{path} holds {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ArtifactError(f"{path} holds a malformed {kind}: {exc}") from None


_NOUNS = {int: "an integer", float: "a number", str: "a string",
          dict: "an object", np.ndarray: "an array of numbers"}


def build(cls, doc, section=None):
    """The dataclass `cls` from the JSON object `doc`, by field type.

    `doc` holds the fields of `cls` and no other key, but may leave out one
    with a default. A dataclass field is built from its own object, named
    `section` in errors, which holds every field of its type. An int, str
    or dict field takes only that JSON type, and a float or an np.ndarray
    field only numbers; never a bool. The type's own checks then apply. A
    mismatch raises ArtifactError, which `loading` completes with the path.
    """
    name = section or getattr(cls, "KIND", cls.__name__)
    if not isinstance(doc, dict):
        raise ArtifactError(f"a {name} that is {reprlib.repr(doc)}, not an object")
    known = {f.name: f for f in fields(cls)}
    for f in known.values():
        if f.name not in doc and (section or f.default is MISSING):
            raise ArtifactError(f"a {name} without the key {f.name!r}")
    unknown = sorted(doc.keys() - known.keys())
    if unknown:
        raise ArtifactError(f"a {name} with the unknown key {unknown[0]!r}")
    return cls(**{key: _field(known[key], value, name)
                  for key, value in doc.items()})


def _field(f, value, name):
    if is_dataclass(f.type):
        return build(f.type, value, f"{name} {f.name}")
    if f.type is np.ndarray:
        array = np.asarray(value)
        if array.dtype.kind in "iuf":
            return array
    elif (isinstance(value, (int, float) if f.type is float else f.type)
          and not isinstance(value, bool)):
        return float(value) if f.type is float else value
    raise ArtifactError(f"a {name} whose {f.name} is {reprlib.repr(value)}, "
                        f"not {_NOUNS[f.type]}")


def read_json(path, kind=None):
    """The JSON document at `path`; with `kind`, one whose `kind` tag matches."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from None
    if kind is not None:
        found = doc.get("kind") if isinstance(doc, dict) else None
        if found != kind:
            held = "no artifact kind" if found is None else repr(found)
            raise ArtifactError(f"{path} holds {held}, expected a {kind}")
    return doc
