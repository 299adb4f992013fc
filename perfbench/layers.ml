(* The per-layer metrics of the traced run. Every workload prints all of
   them; a layer that is not on a workload's path reads 0 there (the
   fixpoint on [serve] and [eval], the shard router on [decide] and
   [eval]), which is itself the prediction the README states. Time
   metrics are means per operation of the layer; counts are totals for
   one round (decide, eval) or one traced load step (serve), and repeat
   exactly for a given seed. *)

let all =
  [ ("xpath.parse_us", "us");
    ("xpath.canonical_us", "us");
    ("automata.translate_ms", "ms");
    ("automata.q", "count");
    ("automata.k", "count");
    ("decision.fixpoint_ms", "ms");
    ("decision.states", "count");
    ("decision.transitions", "count");
    ("decision.mergings", "count");
    ("decision.transitions_per_s", "1/s");
    ("decision.pruned", "count");
    ("decision.prune_yield", "ratio");
    ("decision.verify_ms", "ms");
    ("decision.budget_exhausted", "count");
    ("parallel.par_waves", "count");
    ("parallel.domains_used_max", "count");
    ("parallel.imbalance_max_pct", "%");
    ("service.wire_parse_us", "us");
    ("service.encode_us", "us");
    ("service.cache_probe_us", "us");
    ("service.cache_hits", "count");
    ("service.cache_misses", "count");
    ("service.memory_hit_ratio", "ratio");
    ("store.appends", "count");
    ("store.append_us", "us");
    ("store.disk_hits", "count");
    ("store.probe_us", "us");
    ("shard.route_us", "us");
    ("shard.pipe_queue_ms", "ms");
    ("shard.max_over_mean_requests", "ratio");
    ("eval.doc_build_ms", "ms");
    ("eval.query_ms", "ms");
    ("eval.node_evals", "count");
    ("eval.node_evals_per_s", "1/s");
    ("eval.rss_kb_per_query", "kB");
    ("load.late_ms", "ms");
    ("trace.unattributed_ms", "ms");
    ("trace.overhead_pct", "%") ]

let metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name all) then failwith ("unknown layer metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      Common.m name unit_ v)
    all
