"""Pipeline files on disk: one atomic writer, one columnar CSV writer and one
kind-checked JSON reader.

Every file a stage writes goes through `atomic_writer`, so a reader sees the
old file or the new one, never a partial write. Every CSV goes through
`write_csv`, which takes its table as columns of text and writes the bytes
the csv module's default dialect would. JSON artifacts carry a `kind` tag,
and `read_json` refuses a file holding another kind or missing a key its
reader needs, so a wrong file passed to an input option fails with an error
that names it.
"""

import json
import os
from contextlib import contextmanager


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
    """`doc` with sorted keys and a final newline.

    One `json.dumps` string: at indent=None it comes from the C encoder,
    which `json.dump` never uses.
    """
    text = json.dumps(doc, indent=indent, sort_keys=True) + "\n"
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


def read_json(path, kind=None, keys=()):
    """The JSON document at `path`; with `kind`, one whose `kind` tag matches
    and that holds every key in `keys`."""
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
        for key in keys:
            if key not in doc:
                raise ArtifactError(f"{path} holds a {kind} without the key {key!r}")
    return doc
