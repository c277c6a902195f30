"""Seeded input generator for the extraction benchmark.

Every workload gets three inputs, all drawn from ``--seed``:

- a corpus in the program's ``(doc_id, spans, binary)`` form, written as
  one parquet file per shard;
- an ``events`` and a ``documents`` table with the columns of the
  repository's test tables.

Alongside the files the generator keeps a *record* of everything it
planted: each document's expected output span sequence, the exact
duplicate groups, the per-shard document lists, the per-user session
counts, the planted near-duplicate pairs and the expected dedup
clusters. The benchmark checks the program's outputs against this record
only; nothing here imports the program.

Filler is drawn so that nothing unplanted can match a signature: payload
filler uses only lowercase letters and digits (no magic or marker starts
with one), words are random lowercase strings (every text pattern has an
uppercase letter, a space or is re-checked below), and each payload and
text is re-scanned after it is built; a draw that holds an unplanted
match is drawn again.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
from dataclasses import dataclass

import numpy as np

# The program's input format and signature tables, restated as data.
FRAME_MAGIC = b"FASG"
EXIF_BEGIN = b"EXIF\n"
EXIF_END = b"ENDEXIF\n"
OCR_BEGIN = b"OCR\n"
OCR_END = b"\nENDOCR\n"
MAGICS = [
    ("zip", b"PK\x03\x04"),
    ("gzip", b"\x1f\x8b\x08\x00"),
    ("png", b"\x89PNG\r\n\x1a\n"),
    ("elf", b"\x7fELF\x01"),
]
PATTERNS = ["EICAR-TEST", "password", "BEGIN RSA PRIVATE KEY", "API_KEY", "ssh-rsa AAAA"]
EXIF_KEYS = ["Make", "Model", "DateTime", "ImageWidth", "ImageHeight"]
MAKES = ["Canon", "Nikon", "Sony", "Fujifilm", "Leica"]

FILLER_ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
EVENT_TYPES = ["view", "click", "purchase", "signup", "error"]
SESSION_GAP_S = 1800
NUM_PARTITIONS = 8


@dataclass(frozen=True)
class Profile:
    """Shape of one workload's inputs."""

    path: str              # "sharded" (run_sharded) or "partitioned" (write_partitioned)
    n_docs: int
    n_shards: int
    spans: tuple[int, int]  # source spans per doc, inclusive range
    media_share: float      # share of source spans that carry a payload
    filler: tuple[int, int]  # payload filler bytes, inclusive range
    heavy_shards: tuple[int, ...]  # shards holding the x100 payloads
    heavy_per_shard: int
    dup_share: float        # share of docs that are exact clones
    events_rows: int
    events_users: int
    hot_share: float        # share of events owned by user 0
    documents: int
    doc_exact_pairs: int
    doc_near_pairs: int


PROFILES = {
    "sharded_media_skew": Profile(
        path="sharded", n_docs=2400, n_shards=8, spans=(3, 10), media_share=0.7,
        filler=(300, 1500), heavy_shards=(1, 2), heavy_per_shard=16, dup_share=0.10,
        events_rows=20_000, events_users=100, hot_share=0.0,
        documents=2000, doc_exact_pairs=20, doc_near_pairs=20,
    ),
    "partitioned_text": Profile(
        path="partitioned", n_docs=10000, n_shards=8, spans=(2, 6), media_share=0.04,
        filler=(40, 200), heavy_shards=(), heavy_per_shard=0, dup_share=0.10,
        events_rows=20_000, events_users=100, hot_share=0.0,
        documents=2000, doc_exact_pairs=20, doc_near_pairs=20,
    ),
    "hotkey_queries": Profile(
        path="sharded", n_docs=400, n_shards=4, spans=(2, 8), media_share=0.4,
        filler=(100, 600), heavy_shards=(), heavy_per_shard=0, dup_share=0.10,
        events_rows=120_000, events_users=400, hot_share=0.4,
        documents=2000, doc_exact_pairs=40, doc_near_pairs=60,
    ),
}

_WORKLOAD_TAG = {name: i + 1 for i, name in enumerate(PROFILES)}
GEN_VERSION = "2"


# -- text ----------------------------------------------------------------

def _words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` random lowercase words of 3..8 letters."""
    lens = rng.integers(3, 9, size=n)
    letters = LETTERS[rng.integers(0, len(LETTERS), size=int(lens.sum()))].tobytes().decode()
    out, pos = [], 0
    for k in lens:
        out.append(letters[pos : pos + k])
        pos += k
    return out


def _count_patterns(text: str) -> list[str]:
    """Every pattern occurrence in ``text`` in position order (the
    generator's own re-scan, used only to reject unplanted matches)."""
    hits = []
    for p in PATTERNS:
        start = 0
        while True:
            i = text.find(p, start)
            if i < 0:
                break
            hits.append((i, p))
            start = i + 1
    return [p for _, p in sorted(hits)]


def _sentence(rng: np.random.Generator, lo: int, hi: int, pattern_p: float) -> tuple[str, list[str]]:
    """(text, planted patterns in order). Patterns are inserted as whole
    tokens; a draw whose re-scan disagrees with the plan is redrawn."""
    while True:
        words = _words(rng, int(rng.integers(lo, hi + 1)))
        if rng.random() < pattern_p:
            for _ in range(int(rng.integers(1, 3))):
                pat = PATTERNS[int(rng.integers(0, len(PATTERNS)))]
                words.insert(int(rng.integers(0, len(words) + 1)), pat)
        text = " ".join(words)
        planted = [w for w in words if w in PATTERNS]
        if _count_patterns(text) == planted:
            return text, planted


# -- payloads ------------------------------------------------------------

def _magic_hits(body: bytes) -> list[tuple[int, int]]:
    hits = []
    for mi, (_, magic) in enumerate(MAGICS):
        start = 0
        while True:
            i = body.find(magic, start)
            if i < 0:
                break
            hits.append((i, mi))
            start = i + 1
    return sorted(hits)


def _payload(rng, kind: str, filler_range, heavy: bool, ref: int):
    """(body, expected spans for this payload without order)."""
    while True:
        parts = []
        exif_lines: list[str] = []
        ocr = None
        ocr_pats: list[str] = []
        if kind == "media" and rng.random() < 0.6:
            vals = {
                "Make": MAKES[int(rng.integers(0, len(MAKES)))],
                "Model": f"X{int(rng.integers(1, 100))}",
                "DateTime": (
                    f"2024:{int(rng.integers(1, 13)):02d}:{int(rng.integers(1, 29)):02d} "
                    f"{int(rng.integers(0, 24)):02d}:{int(rng.integers(0, 60)):02d}:"
                    f"{int(rng.integers(0, 60)):02d}"
                ),
                "ImageWidth": str(int(rng.integers(1, 41)) * 64),
                "ImageHeight": str(int(rng.integers(1, 41)) * 64),
            }
            exif_lines = [f"{k}: {vals[k]}" for k in EXIF_KEYS]
            parts.append(EXIF_BEGIN + "".join(l + "\n" for l in exif_lines).encode() + EXIF_END)
        if kind == "media" and rng.random() < 0.5:
            ocr, ocr_pats = _sentence(rng, 4, 12, 0.15)
            parts.append(OCR_BEGIN + ocr.encode() + OCR_END)
        head = b"".join(parts)
        n = int(rng.integers(filler_range[0], filler_range[1] + 1)) * (100 if heavy else 1)
        filler = bytearray(FILLER_ALPHABET[rng.integers(0, len(FILLER_ALPHABET), size=n)].tobytes())
        planted = []
        if rng.random() < 0.4:
            # magic at filler offset 0 of a bare payload sets the sniffed type
            taken = -100
            cands = np.sort(rng.choice(max(1, n - 16), size=min(3, max(1, n // 32)), replace=False))
            if not head and rng.random() < 0.5:
                cands = np.r_[0, cands[cands >= 16]]
            for pos in cands:
                pos = int(pos)
                if pos < taken + 12:
                    continue
                mi = int(rng.integers(0, len(MAGICS)))
                magic = MAGICS[mi][1]
                filler[pos : pos + len(magic)] = magic
                planted.append((len(head) + pos, mi))
                taken = pos
        body = head + bytes(filler)
        if _magic_hits(body) != sorted(planted):
            continue
        sniff = "data"
        for name, magic in MAGICS:
            if body.startswith(magic):
                sniff = name
                break
        spans = [("meta", f"SniffedType: {sniff}", ref)]
        spans += [("meta", l, ref) for l in exif_lines]
        if ocr is not None:
            spans.append(("ocr", ocr, ref))
            spans += [("match", p, ref) for p in ocr_pats]
        spans += [("embedded", f"{MAGICS[mi][0]}@{pos}", ref) for pos, mi in sorted(planted)]
        return body, spans


# -- corpus --------------------------------------------------------------

def doc_id_for(i: int) -> str:
    return f"d{i:07d}"


def _root_doc(rng, prof: Profile, heavy: bool):
    """Content of one original document: source spans (media_ref left
    as a span index), payload bodies in source order, and a function
    that renders the expected output for a given doc_id."""
    n = int(rng.integers(prof.spans[0], prof.spans[1] + 1))
    kinds = []
    for j in range(n):
        r = rng.random()
        kinds.append("text" if r >= prof.media_share else ("media" if r < prof.media_share * 0.8 else "binary"))
    forced = int(rng.integers(0, n))
    kinds[forced] = "text"  # every doc carries words: distinct content
    heavy_at = None
    if heavy:
        payload_at = [j for j, k in enumerate(kinds) if k != "text"]
        if not payload_at:
            payload_at = [(forced + 1) % n]
            kinds[payload_at[0]] = "binary"
        heavy_at = payload_at[int(rng.integers(0, len(payload_at)))]
    offsets = rng.integers(1, 4 * n, size=n)  # ties happen; order is (offset, index)
    src, bodies, planned = [], [], []
    forced_text = False
    for j, kind in enumerate(kinds):
        if kind == "text":
            r = rng.random()
            if r < 0.05 and forced_text:
                text = "   " if rng.random() < 0.5 else ""
                norm, pats = "", []
            else:
                text, pats = _sentence(rng, 6, 18, 0.1)
                if r < 0.15:  # messy whitespace the kernel must collapse
                    text = "  " + text.replace(" ", " \t ", 2) + " \n"
                norm = " ".join(text.split())
                forced_text = True
            src.append((kind, text, int(offsets[j])))
            planned.append([("text", norm, None)] + [("match", p, None) for p in pats] if norm else [])
        else:
            body, spans = _payload(rng, kind, prof.filler, j == heavy_at, j)
            src.append((kind, "", int(offsets[j])))
            bodies.append(body)
            planned.append(spans)
    drop_last = len(bodies) > 0 and rng.random() < 0.02  # a media span without a frame
    if drop_last:
        last = max(j for j, k in enumerate(kinds) if k != "text")
        planned[last] = [("meta", "SniffedType: empty", last)]
        bodies = bodies[:-1]
    order = sorted(range(n), key=lambda j: (src[j][2], j))
    return {"src": src, "bodies": bodies, "planned": planned, "order": order}


def _render(content: dict, doc_id: str):
    """(row, expected span sequence) of ``content`` under ``doc_id``."""
    refs = [f"m/{doc_id}/{j}" if k != "text" else "" for j, (k, _, _) in enumerate(content["src"])]
    spans = [
        {"kind": k, "text": t, "media_ref": refs[j], "offset": off}
        for j, (k, t, off) in enumerate(content["src"])
    ]
    binary = b"".join(FRAME_MAGIC + struct.pack("<I", len(b)) + b for b in content["bodies"])
    seq = []
    for j in content["order"]:
        for kind, text, ref in content["planned"][j]:
            seq.append((kind, text, "" if ref is None else refs[ref], len(seq)))
    return {"doc_id": doc_id, "spans": spans, "binary": binary}, seq


def _corpus(rng, prof: Profile):
    n, S = prof.n_docs, prof.n_shards
    shard_of = np.repeat(np.arange(S), -(-n // S))[:n]
    heavy = set()
    for s in prof.heavy_shards:
        members = np.flatnonzero(shard_of == s)
        heavy.update(int(i) for i in rng.choice(members, size=prof.heavy_per_shard, replace=False))
    roots: dict[int, dict] = {}
    sources: list[int] = []  # roots a clone may copy (never a x100 doc)
    clone_of: dict[int, int] = {}
    rows, expected = [], {}
    for i in range(n):
        did = doc_id_for(i)
        if i >= 10 and i not in heavy and rng.random() < prof.dup_share:
            src = sources[int(rng.integers(0, len(sources)))]
            clone_of[i] = src
            content = roots[src]
        else:
            content = _root_doc(rng, prof, i in heavy)
            roots[i] = content
            if i not in heavy:
                sources.append(i)
        row, seq = _render(content, did)
        rows.append(row)
        expected[did] = seq
    groups: dict[int, list[str]] = {}
    for c, r in clone_of.items():
        groups.setdefault(r, [doc_id_for(r)]).append(doc_id_for(c))
    shards = {f"part-{s:03d}": [r["doc_id"] for r, so in zip(rows, shard_of) if so == s] for s in range(S)}
    return rows, shard_of, {
        "expected": expected,
        "clone_groups": sorted(sorted(g) for g in groups.values()),
        "shards": shards,
        "heavy_docs": sorted(doc_id_for(i) for i in heavy),
        "payload_bytes": int(sum(len(r["binary"]) for r in rows)),
    }


# -- tables --------------------------------------------------------------

def _events(rng, prof: Profile):
    import pyarrow as pa

    n = prof.events_rows
    # users' events cover 20 days; the hot user goes quiet for 40
    # planted hour-long windows, every one a session break
    span_us = 20 * 86400 * 1_000_000
    ts = np.sort(rng.integers(0, span_us, size=n))
    users = rng.integers(1, prof.events_users, size=n)
    if prof.hot_share > 0:
        hot = rng.random(n) < prof.hot_share
        quiet_starts = rng.choice(np.arange(1, 479), size=40, replace=False) * 3_600_000_000
        in_quiet = np.zeros(n, dtype=bool)
        for q in quiet_starts:
            in_quiet |= (ts >= q) & (ts < q + 3_600_000_000)
        users = np.where(hot & ~in_quiet, 0, users)
    base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    table = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(base + ts, pa.timestamp("us")),
            "user_id": pa.array(users.astype(np.int64)),
            "event_type": pa.array([EVENT_TYPES[k] for k in rng.integers(0, len(EVENT_TYPES), size=n)]),
            "value": pa.array(rng.integers(1, 50000, size=n) / 100.0),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, size=n)]),
        }
    )
    # the gap rule, over (user, ts, event_id) order
    order = np.lexsort((np.arange(n), ts, users))
    u, t = users[order], ts[order]
    new_user = np.r_[True, u[1:] != u[:-1]]
    new_sess = new_user | (np.r_[0, np.diff(t)] > SESSION_GAP_S * 1_000_000)
    sessions = {}
    starts = np.flatnonzero(new_user)
    ends = np.r_[starts[1:], n]
    for s, e in zip(starts, ends):
        sessions[int(u[s])] = (int(new_sess[s:e].sum()), int(e - s))
    return table, sessions


def shingles(text: str, k: int = 5) -> set[str]:
    s = " ".join(text.split()).lower()
    if len(s) < k:
        return {s} if s else set()
    return {s[i : i + k] for i in range(len(s) - k + 1)}


def jaccard(a: str, b: str) -> float:
    sa, sb = shingles(a), shingles(b)
    return len(sa & sb) / len(sa | sb)


def _documents(rng, prof: Profile):
    import pyarrow as pa

    n = prof.documents
    texts = [" ".join(_words(rng, int(rng.integers(60, 120)))) for _ in range(n)]
    ids = rng.permutation(n)
    planted_exact, planted_near = [], []
    k = 0
    for _ in range(prof.doc_exact_pairs):
        a, b = int(ids[k]), int(ids[k + 1]); k += 2
        texts[b] = texts[a]
        planted_exact.append((min(a, b), max(a, b)))
    for _ in range(prof.doc_near_pairs):
        a, b = int(ids[k]), int(ids[k + 1]); k += 2
        words = texts[a].split(" ")
        for pos in rng.choice(len(words), size=2, replace=False):
            words[int(pos)] = _words(rng, 1)[0]
        texts[b] = " ".join(words)
        j = jaccard(texts[a], texts[b])
        if j < 0.85:
            raise RuntimeError(f"planted near pair too far apart: {j}")
        planted_near.append((min(a, b), max(a, b)))
    table = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "source": pa.array([f"src{d % 5}" for d in range(n)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    # extract_dedup_clusters' clone rule: doc d % 20 == 7 clones d - 4
    clusters: dict[int, list[int]] = {}
    for d in range(n):
        clusters.setdefault(d - 4 if d % 20 == 7 else d, []).append(d)
    dedup = sorted(
        (f"{min(m):08d}", len(m), ",".join(f"{x:08d}" for x in sorted(m)))
        for m in clusters.values()
    )
    return table, {
        "texts": texts,
        "exact_pairs": planted_exact,
        "near_pairs": planted_near,
        "dedup_clusters": dedup,
    }


# -- entry ---------------------------------------------------------------

def _docs_schema():
    import pyarrow as pa

    span = pa.struct([("kind", pa.string()), ("text", pa.string()),
                      ("media_ref", pa.string()), ("offset", pa.int32())])
    return pa.schema([("doc_id", pa.string()), ("spans", pa.list_(span)), ("binary", pa.large_binary())])


def _write(workload: str, seed: int, root: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    prof = PROFILES[workload]
    rng = np.random.default_rng([seed, _WORKLOAD_TAG[workload]])
    rows, shard_of, corpus = _corpus(rng, prof)
    events, sessions = _events(rng, prof)
    documents, docs_rec = _documents(rng, prof)
    os.makedirs(os.path.join(root, "corpus"))
    os.makedirs(os.path.join(root, "tables"))
    schema = _docs_schema()
    for s in range(prof.n_shards):
        part = [r for r, so in zip(rows, shard_of) if so == s]
        pq.write_table(pa.Table.from_pylist(part, schema=schema),
                       os.path.join(root, "corpus", f"part-{s:03d}.parquet"))
    pq.write_table(events, os.path.join(root, "tables", "events.parquet"))
    pq.write_table(documents, os.path.join(root, "tables", "documents.parquet"))
    record = {
        "workload": workload,
        "seed": seed,
        "n_docs": prof.n_docs,
        "n_spans": sum(len(s) for s in corpus["expected"].values()),
        **corpus,
        "sessions": sessions,
        **docs_rec,
    }
    with open(os.path.join(root, "record.pkl"), "wb") as f:
        pickle.dump(record, f, protocol=pickle.HIGHEST_PROTOCOL)


def inputs(workload: str, seed: int, cache_dir: str) -> tuple[str, dict]:
    """Directory of the workload's inputs for ``seed`` (generated on
    first use, then reused) and the generator's record."""
    root = os.path.join(cache_dir, f"v{GEN_VERSION}-{workload}-{seed}")
    marker = os.path.join(root, "_COMPLETE")
    if not os.path.exists(marker):
        tmp = root + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        _write(workload, seed, tmp)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(tmp, root)
        open(marker, "w").close()
    with open(os.path.join(root, "record.pkl"), "rb") as f:
        return root, pickle.load(f)
