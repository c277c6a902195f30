"""Output checks, computed from the generator's record and the
benchmark's own code only (never from the program's oracle or a saved
output). Each check raises :class:`CheckFailed` with the first
disagreement it finds."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from gen import jaccard

SCORE_FIELDS = ["mode", "description", "tags", "objects", "recommended_filename",
                "model_status", "attempts"]


class CheckFailed(Exception):
    pass


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def span_sequences(table: pa.Table) -> dict[str, list[tuple]]:
    """doc_id → [(kind, text, media_ref, order)] of an extracted table."""
    spans = table.column("spans").combine_chunks()
    off = spans.offsets.to_pylist()
    sv = spans.values
    k, t, r, o = (sv.field(f).to_pylist() for f in ("kind", "text", "media_ref", "offset"))
    out = {}
    for i, d in enumerate(table.column("doc_id").to_pylist()):
        lo, hi = off[i], off[i + 1]
        out[d] = list(zip(k[lo:hi], t[lo:hi], r[lo:hi], o[lo:hi]))
    return out


def check_extracted(table: pa.Table, record: dict, scored: bool) -> None:
    """Span sequences, n_spans, status, duplicate groups and (if
    ``scored``) memo-safe score fields of a whole extracted corpus."""
    expected = record["expected"]
    ids = table.column("doc_id").to_pylist()
    if len(ids) != len(expected) or set(ids) != set(expected):
        _fail(f"extracted {len(ids)} rows / {len(set(ids))} ids, planned {len(expected)}")
    bad = [s for s in table.column("status").to_pylist() if s != "success"]
    if bad:
        _fail(f"{len(bad)} rows not successful, first: {bad[0]}")
    seqs = span_sequences(table)
    n_spans = table.column("n_spans").to_pylist()
    for i, d in enumerate(ids):
        if seqs[d] != expected[d]:
            got, want = seqs[d], expected[d]
            j = next((j for j, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            _fail(f"{d}: span {j} is {got[j] if j < len(got) else None}, planned "
                  f"{want[j] if j < len(want) else None}")
        if n_spans[i] != len(expected[d]):
            _fail(f"{d}: n_spans {n_spans[i]} != {len(expected[d])}")
    hashes = table.column("content_hash").to_pylist()
    groups: dict[str, list[str]] = {}
    for d, h in zip(ids, hashes):
        if not h:
            _fail(f"{d}: empty content_hash")
        groups.setdefault(h, []).append(d)
    dup = sorted(sorted(g) for g in groups.values() if len(g) > 1)
    if dup != record["clone_groups"]:
        _fail(f"{len(dup)} content_hash groups, planted {len(record['clone_groups'])} clone groups")
    if scored:
        cols = [table.column(c).to_pylist() for c in SCORE_FIELDS]
        first: dict[str, tuple] = {}
        for i, h in enumerate(hashes):
            row = tuple(json.dumps(c[i], sort_keys=True) for c in cols)
            if first.setdefault(h, row) != row:
                _fail(f"{ids[i]}: score fields differ from another row with its content_hash")


def check_totals(manifests: list[dict], record: dict, what: str) -> None:
    rows = sum(m["row_count"] for m in manifests)
    spans = sum(m["span_count"] for m in manifests)
    if (rows, spans) != (record["n_docs"], record["n_spans"]):
        _fail(f"{what} manifests sum to {rows} rows / {spans} spans, "
              f"planned {record['n_docs']} / {record['n_spans']}")


def check_shard_manifests(manifests: dict[str, dict], record: dict) -> None:
    """Per-shard row and span counts equal the record's, and they sum to
    the corpus totals."""
    if set(manifests) != set(record["shards"]):
        _fail(f"fenced shards {sorted(manifests)} != {sorted(record['shards'])}")
    for stem, docs in record["shards"].items():
        m = manifests[stem]
        want = (len(docs), sum(len(record["expected"][d]) for d in docs))
        if (m["row_count"], m["span_count"]) != want:
            _fail(f"shard {stem}: manifest {m['row_count']}/{m['span_count']}, planned {want}")
    check_totals(list(manifests.values()), record, "shard")


def read_dir(out_dir: str, prefix: str) -> pa.Table:
    """All data files of a sink, in doc_id order."""
    files = sorted(f for f in os.listdir(out_dir) if f.startswith(prefix) and f.endswith(".parquet"))
    return pa.concat_tables([pq.read_table(os.path.join(out_dir, f)) for f in files]).sort_by("doc_id")


def snapshot(out_dir: str) -> dict[str, tuple]:
    """file name → (mtime_ns, size, manifest bytes or None)."""
    snap = {}
    for name in os.listdir(out_dir):
        st = os.stat(os.path.join(out_dir, name))
        body = None
        if name.endswith(".manifest.json"):
            with open(os.path.join(out_dir, name), "rb") as f:
                body = f.read()
        snap[name] = (st.st_mtime_ns, st.st_size, body)
    return snap


def check_resume(before: dict, after: dict, removed: dict[str, str], full: pa.Table,
                 resumed: pa.Table) -> None:
    """``removed`` maps each deleted manifest to its data file. Exactly
    those units are rewritten, every other file is untouched, and the
    final output equals the full pass's."""
    rewritten = set(removed) | set(removed.values())
    for name, (mtime, size, body) in before.items():
        if name in rewritten:
            continue
        if after.get(name) != (mtime, size, body):
            _fail(f"resume touched {name}, which was fenced")
    for manifest, data in removed.items():
        if manifest not in after:
            _fail(f"resume did not re-fence {manifest}")
        if after[data][0] == before[data][0]:
            _fail(f"resume did not rewrite {data}")
    extra = set(after) - set(before) - rewritten
    if extra:
        _fail(f"resume left new files {sorted(extra)}")
    if not resumed.equals(full):
        _fail("output after resume differs from the full pass")


def check_sessions(table: pa.Table, record: dict) -> None:
    got = {
        u: (s, e)
        for u, s, e in zip(*(table.column(c).to_pylist() for c in ("user_id", "n_sessions", "n_events")))
    }
    if len(got) != table.num_rows:
        _fail("events_sessionize returned a user twice")
    if got != record["sessions"]:
        diff = [u for u in record["sessions"] if got.get(u) != record["sessions"][u]]
        _fail(f"events_sessionize: {len(diff)} users differ, e.g. user {diff[:1]}")


def check_near_dups(table: pa.Table, record: dict) -> None:
    texts = record["texts"]
    pairs = {}
    for a, b, j in zip(*(table.column(c).to_pylist() for c in ("doc_id_a", "doc_id_b", "jaccard"))):
        key = (min(a, b), max(a, b))
        if key in pairs:
            _fail(f"docs_minhash_near_dup reported {key} twice")
        pairs[key] = j
        exact = jaccard(texts[a], texts[b])
        if exact < 0.8 or abs(exact - j) > 1e-9:
            _fail(f"pair {key}: reported jaccard {j}, exact 5-shingle jaccard {exact}")
    missing = [p for p in record["exact_pairs"] + record["near_pairs"] if tuple(p) not in pairs]
    if missing:
        _fail(f"docs_minhash_near_dup missed {len(missing)} planted pairs, e.g. {missing[0]}")


def check_dedup_clusters(table: pa.Table, record: dict) -> None:
    got = sorted(zip(*(table.column(c).to_pylist()
                       for c in ("canonical_doc_id", "cluster_size", "members"))))
    if got != record["dedup_clusters"]:
        _fail(f"extract_dedup_clusters: {len(got)} clusters, expected {len(record['dedup_clusters'])}")


def check_clusters(table: pa.Table, record: dict) -> None:
    """exact_dedup_clusters over the corpus: multi-member clusters are
    the planted clone groups and every doc is in exactly one cluster."""
    members = table.column("member_ids").to_pylist()
    if sum(len(m) for m in members) != record["n_docs"]:
        _fail(f"clusters hold {sum(len(m) for m in members)} docs, corpus has {record['n_docs']}")
    dup = sorted(sorted(m) for m in members if len(m) > 1)
    if dup != record["clone_groups"]:
        _fail(f"{len(dup)} multi-member clusters, planted {len(record['clone_groups'])}")
