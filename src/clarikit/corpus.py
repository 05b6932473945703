"""Corpus, instance and embedding ingestion, plus shared text normalization.

Every word-level operation in the toolkit (indexing, lexical metrics,
facet extraction, taxonomy counts) runs on the token stream produced by
:func:`normalize`, so this module is the single source of truth for what
counts as a word.  All loaded structures are immutable and safe to share
across worker threads.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "normalize",
    "stopwords",
    "Document",
    "Corpus",
    "ClarificationInstance",
    "EmbeddingTable",
    "load_corpus",
    "load_instances",
    "load_embeddings",
    "iter_generated",
    "iter_jsonl",
    "read_json_object",
]


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The bundled English stopword list (one lowercase word per line)."""
    text = resources.files("clarikit").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


class _PunctMap(dict):
    """``str.translate`` table: punctuation code points -> space, others kept.

    Filled on demand from ``unicodedata.category`` and cached, so one table
    serves all of Unicode.  It is emptied before it would pass ``2**16``
    entries, so text over many scripts cannot grow it to all of Unicode.
    """

    def __missing__(self, code_point: int) -> str | int:
        mapped = " " if unicodedata.category(chr(code_point)).startswith("P") else code_point
        if len(self) >= 2**16:
            self.clear()
        self[code_point] = mapped
        return mapped


_PUNCT_MAP = _PunctMap()


def normalize(text: str, drop_stopwords: bool = False) -> list[str]:
    """Lowercase, replace Unicode punctuation with separators, split on whitespace.

    With ``drop_stopwords`` the bundled English stopword list is applied
    after splitting.  Deterministic, and idempotent on its own output.
    """
    tokens = text.lower().translate(_PUNCT_MAP).split()
    if drop_stopwords:
        sw = stopwords()
        tokens = [t for t in tokens if t not in sw]
    return tokens


@dataclass(frozen=True)
class Document:
    """One retrievable text unit."""

    id: str
    text: str


def _check_document(fields: dict, seen: set[str]) -> None:
    """The document contract: a string ``id`` that is non-empty and not in
    ``seen``, and a string ``text`` that is not blank; the id joins ``seen``."""
    doc_id, text = fields.get("id"), fields.get("text")
    ok = isinstance(doc_id, str) and isinstance(text, str) and doc_id and doc_id not in seen
    if not (ok and text.strip()):  # the document breaks the contract: name its first fault
        for field in ("id", "text"):
            if field not in fields:
                raise DataError(f"missing field {field!r}")
            if not isinstance(fields[field], str):
                raise DataError(f"field {field!r} must be a string")
        if not doc_id:
            raise DataError("empty document id")
        if doc_id in seen:
            raise DataError(f"duplicate document id {doc_id!r}")
        raise DataError(f"document {doc_id!r} has empty text")
    seen.add(doc_id)


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable document collection."""

    docs: tuple[Document, ...]

    @classmethod
    def from_docs(cls, docs: list[Document] | tuple[Document, ...]) -> "Corpus":
        """A corpus of ``docs`` in order; each passes the document contract
        (see :func:`_check_document`), or :class:`DataError` is raised."""
        seen: set[str] = set()
        for doc in docs:
            _check_document(vars(doc), seen)
        return cls(docs=tuple(docs))

    @cached_property
    def _by_id(self) -> dict[str, Document]:
        return {d.id: d for d in self.docs}

    def doc(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise DataError(f"unknown document id {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.docs)


@dataclass(frozen=True)
class ClarificationInstance:
    """A query with its ground-truth facets and optional template question."""

    id: str
    query: str
    facets: tuple[str, ...]
    question: str | None = None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # Every numeric setting's rule; exact also for an int too big for a float.
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _check_count(name: str, value, low: int = 1, high: int | None = None) -> None:
    """The count rule: an integer, never a bool, at least ``low`` and at most ``high``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _check_vectors(
    rows: Sequence[tuple[str, object]],
    dim: int | None,
    where: Callable[[int], str] = lambda i: "",
) -> np.ndarray:
    """The embedding contract for a non-empty list of (key, vector) rows:
    each vector is a flat list or array of numbers (bools count), non-empty,
    finite and ``dim`` wide (the first row's width if None).  Returns them as
    one float64 matrix; loaded blocks, ``from_dict`` and a dense query pass it.

    One ``np.array`` built without a dtype, so strings and nulls do not
    pass, checks every row in C.  If that fails, the rows are diagnosed in
    order, each typed by numpy alone or, when numpy cannot type a list of
    numbers (integers beyond 64 bits), item by item.  The first bad row i
    raises :class:`DataError`, prefixed with ``where(i)``.
    """

    def numeric(values: list) -> np.ndarray | None:
        try:
            matrix = np.array(values)
        except (ValueError, TypeError, OverflowError):
            return None
        ok = matrix.dtype.kind in "biuf" and matrix.ndim == 2
        return matrix.astype(np.float64, copy=False) if ok else None

    matrix = numeric([value for _, value in rows])
    if matrix is not None and 0 != matrix.shape[1] == (dim or matrix.shape[1]):
        if np.isfinite(matrix).all():
            return matrix
    vectors = []
    for i, (key, value) in enumerate(rows):
        vec = numeric([value])
        if vec is None and isinstance(value, (list, tuple)):
            if all(isinstance(x, (int, float)) for x in value):
                try:
                    vec = np.array([value], dtype=np.float64)
                except OverflowError:  # a JSON integer beyond float range
                    raise DataError(
                        f"{where(i)}embedding for {key!r} holds a number beyond float range"
                    ) from None
        if vec is None:
            fault = "'vector' must be a list of numbers"
        elif vec.shape[1] == 0:
            fault = f"embedding for {key!r} is empty"
        elif vec.shape[1] != (dim or vec.shape[1]):
            fault = f"embedding for {key!r} has {vec.shape[1]} components, expected {dim}"
        elif not np.isfinite(vec).all():
            fault = f"embedding for {key!r} contains a non-finite value"
        else:
            vectors.append(vec)
            dim = vec.shape[1]
            continue
        raise DataError(where(i) + fault)
    return np.concatenate(vectors)


@dataclass(frozen=True)
class EmbeddingTable:
    """Externally computed dense vectors: row i of ``matrix`` is the vector of ``ids[i]``."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @classmethod
    def from_dict(cls, raw: dict[str, "list[float] | np.ndarray"]) -> "EmbeddingTable":
        if not raw:
            raise DataError("embedding table is empty")
        return cls(ids=tuple(raw), matrix=_check_vectors(list(raw.items()), None))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {key: i for i, key in enumerate(self.ids)}

    def vector(self, key: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[key]]
        except KeyError:
            raise DataError(f"no embedding for key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._row_of

    def __len__(self) -> int:
        return len(self.ids)


_DECODE = json.JSONDecoder().raw_decode


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) for every non-blank line.

    The toolkit's one JSONL reader: corpus, instance, embedding and
    generated facet files are all read through it.  Each stripped line goes
    to json's C scanner in one ``raw_decode`` call; a leading BOM and text
    after the value fail as they do in ``json.loads``, with its messages.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if line[0] == "\ufeff":
                        raise json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                        )
                    obj, end = _DECODE(line)
                    if end != len(line):  # the line is stripped: no whitespace follows
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
                except RecursionError as exc:
                    raise DataError(f"{path}: line {lineno}: JSON nested too deeply") from exc
                if not isinstance(obj, dict):
                    raise DataError(f"{path}: line {lineno}: expected a JSON object")
                yield lineno, obj
    except UnicodeDecodeError as exc:
        # Decoded in chunks, so the failing line is not known.
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that holds one object (a config or report)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return obj


def _require(obj: dict, field: str, path: Path | str, lineno: int):
    if field not in obj:
        raise DataError(f"{path}: line {lineno}: missing field {field!r}")
    return obj[field]


def _require_str(obj: dict, field: str, path: Path | str, lineno: int) -> str:
    value = _require(obj, field, path, lineno)
    if not isinstance(value, str):
        raise DataError(f"{path}: line {lineno}: field {field!r} must be a string")
    return value


def _require_str_list(obj: dict, field: str, path: Path | str, lineno: int) -> list[str]:
    value = _require(obj, field, path, lineno)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{path}: line {lineno}: {field!r} must be a list of strings")
    return value


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus ({"id","text"} per line), preserving file order.

    Each line passes the document contract (see :func:`_check_document`);
    its error names the line.  Duplicate ids are a hard error: silently
    keeping one copy would corrupt downstream document statistics.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        try:
            _check_document(obj, seen)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        docs.append(Document(id=obj["id"], text=obj["text"]))
    return Corpus(docs=tuple(docs))


def load_instances(path: str | Path) -> list[ClarificationInstance]:
    """Load clarification instances from JSONL, preserving file and facet order."""
    instances: list[ClarificationInstance] = []
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl(path):
        inst_id = _require_str(obj, "id", path, lineno)
        query = _require_str(obj, "query", path, lineno)
        facets = _require_str_list(obj, "facets", path, lineno)
        if not facets:
            raise DataError(f"{path}: line {lineno}: instance {inst_id!r} has no facets")
        for facet in facets:
            if not normalize(facet):
                raise DataError(
                    f"{path}: line {lineno}: facet {facet!r} normalizes to nothing"
                )
        question = obj.get("question")
        if question is not None and not isinstance(question, str):
            raise DataError(f"{path}: line {lineno}: 'question' must be a string or null")
        if inst_id in seen:
            raise DataError(
                f"{path}: line {lineno}: duplicate instance id {inst_id!r} "
                f"(first seen on line {seen[inst_id]})"
            )
        seen[inst_id] = lineno
        instances.append(
            ClarificationInstance(id=inst_id, query=query, facets=tuple(facets), question=question)
        )
    return instances


def iter_generated(path: str | Path) -> Iterator[tuple[str, list[str]]]:
    """Stream (id, facets) records from a generated-facets JSONL file; ids are unique."""
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl(path):
        gen_id = _require_str(obj, "id", path, lineno)
        facets = _require_str_list(obj, "facets", path, lineno)
        if gen_id in seen:
            raise DataError(
                f"{path}: line {lineno}: duplicate generated id {gen_id!r} "
                f"(first seen on line {seen[gen_id]})"
            )
        seen[gen_id] = lineno
        yield gen_id, facets


_EMBEDDING_BLOCK_ROWS = 128  # rows per numpy check; bounded, so memory stays flat


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load an embedding table from JSONL ({"id","vector"} per line).

    The dimensionality is fixed by the first line; later lines must agree.
    Rows pass :func:`_check_vectors` :data:`_EMBEDDING_BLOCK_ROWS` at a
    time; the first bad line in file order is the one reported, whatever
    its fault.
    """
    ids: dict[str, None] = {}  # an ordered set: file order, for the duplicate check
    rows = array("d")  # one growing buffer, not per-row arrays stacked at the end
    block: list[tuple[int, str, object]] = []  # (line number, id, vector) rows to check
    dim: int | None = None

    def check_block() -> None:
        nonlocal dim
        if block:
            pairs = [(key, vector) for _, key, vector in block]
            matrix = _check_vectors(pairs, dim, lambda i: f"{path}: line {block[i][0]}: ")
            rows.frombytes(matrix.tobytes())
            dim = matrix.shape[1]
            block.clear()

    for lineno, obj in iter_jsonl(path):
        key = obj.get("id")
        if type(key) is not str or "vector" not in obj or key in ids:
            check_block()  # earlier lines are reported first
            key = _require_str(obj, "id", path, lineno)
            block.append((lineno, key, _require(obj, "vector", path, lineno)))
            check_block()  # a bad vector on this line is reported before its duplicate id
            raise DataError(f"{path}: line {lineno}: duplicate embedding id {key!r}")
        ids[key] = None
        block.append((lineno, key, obj["vector"]))
        if len(block) == _EMBEDDING_BLOCK_ROWS:
            check_block()
    check_block()
    if dim is None:
        raise DataError(f"{path}: no embeddings found")
    return EmbeddingTable(ids=tuple(ids), matrix=np.frombuffer(rows).reshape(len(ids), dim))
