type t = {
  refs_per_level : int;
  replication : int;
  timeout_ms : float;
  retries : int;
  retry_jitter : float;
  proximity_routing : bool;
  max_hops : int;
  shortcut_capacity : int;
  adaptive_timeout : bool;
  hot_replication : bool;
  store_backend : Store.backend;
}

let default =
  {
    refs_per_level = 3;
    replication = 2;
    timeout_ms = 10_000.0;
    retries = 2;
    retry_jitter = 0.2;
    proximity_routing = false;
    max_hops = 128;
    shortcut_capacity = 128;
    adaptive_timeout = true;
    hot_replication = false;
    store_backend = Store.Hash;
  }
