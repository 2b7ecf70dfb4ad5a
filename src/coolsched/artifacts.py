"""Pipeline files on disk: one atomic writer and one kind-checked JSON reader.

Every file a stage writes goes through `atomic_writer`, so a reader sees the
old file or the new one, never a partial write. JSON artifacts carry a
`kind` tag, and `read_json` refuses a file holding another kind or missing a
key its reader needs, so a wrong file passed to an input option fails with
an error that names it.
"""

import csv
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
    """`doc` with sorted keys and a final newline."""
    with atomic_writer(path) as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """A header row, then `rows`, in the csv module's default dialect."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
