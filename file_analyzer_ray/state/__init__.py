"""On-disk state: the two resumable sinks (``shards`` fences per input
shard, ``lineage`` per ``hash(doc_id)`` partition), the write-once
layouts they and the queries read (``bucketed``, ``ranged``,
``zorder``), and ``guard``, the one place that validates a sink path,
publishes and fences a unit, lists fenced units and builds a
content-keyed layout once."""
