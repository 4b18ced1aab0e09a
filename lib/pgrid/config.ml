type t = {
  refs_per_level : int;
  replication : int;
  max_depth : int;
  timeout_ms : float;
  retries : int;
  retry_backoff : float;
  retry_jitter : float;
  proximity_routing : bool;
  gossip_fanout : int;
  max_hops : int;
  shortcut_capacity : int;
  adaptive_timeout : bool;
  min_timeout_ms : float;
  hot_replication : bool;
  hot_factor : float;
  hot_min_load : int;
  hot_max_boosts : int;
  store_backend : Store_intf.backend;
}

let default =
  {
    refs_per_level = 3;
    replication = 2;
    max_depth = 96;
    timeout_ms = 10_000.0;
    retries = 2;
    retry_backoff = 2.0;
    retry_jitter = 0.2;
    proximity_routing = false;
    gossip_fanout = 2;
    max_hops = 128;
    shortcut_capacity = 128;
    adaptive_timeout = true;
    min_timeout_ms = 25.0;
    hot_replication = false;
    hot_factor = 3.0;
    hot_min_load = 32;
    hot_max_boosts = 3;
    store_backend = Store_intf.Hash;
  }
