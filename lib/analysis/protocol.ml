type role = Request of { ops : string list } | Reply | Background
type entry = { constructor : string; kind : string; role : role }

(* lib/pgrid/message.ml: constructors of [Message.t]. The [ops] labels
   are the [op] strings overlay.ml stores in its pending table when it
   initiates the request ([Psingle]/[Pmulti]/[Pbatch] registrations and
   [~op] arguments to [start_multi]). *)
let pgrid =
  [
    { constructor = "Insert"; kind = "insert"; role = Request { ops = [ "insert"; "delete" ] } };
    { constructor = "Update"; kind = "update"; role = Request { ops = [ "update" ] } };
    { constructor = "Replicate"; kind = "replicate"; role = Background };
    { constructor = "Lookup"; kind = "lookup"; role = Request { ops = [ "lookup" ] } };
    { constructor = "Found"; kind = "found"; role = Reply };
    { constructor = "Range"; kind = "range"; role = Request { ops = [ "range"; "prefix" ] } };
    { constructor = "RangeHit"; kind = "range-hit"; role = Reply };
    {
      constructor = "InsertBatch";
      kind = "insert-batch";
      role = Request { ops = [ "bulk-insert" ] };
    };
    {
      constructor = "MultiLookup";
      kind = "multi-lookup";
      role = Request { ops = [ "multi-lookup" ] };
    };
    { constructor = "MultiFound"; kind = "multi-found"; role = Reply };
    { constructor = "Probe"; kind = "probe"; role = Request { ops = [ "broadcast" ] } };
    { constructor = "Task"; kind = "task"; role = Background };
    { constructor = "SyncDigest"; kind = "sync-digest"; role = Background };
    { constructor = "SyncRequest"; kind = "sync-request"; role = Background };
    { constructor = "StatDigest"; kind = "stat-digest"; role = Background };
    { constructor = "StatPull"; kind = "stat-pull"; role = Background };
    { constructor = "StatGossip"; kind = "stat-gossip"; role = Background };
    { constructor = "HotSync"; kind = "hot-sync"; role = Background };
  ]

(* lib/chord/chord.ml: constructors of [Chord.msg]. Chord's pending
   entries carry no [op] label, so [ops = []] everywhere. *)
let chord =
  [
    { constructor = "Put"; kind = "put"; role = Request { ops = [] } };
    { constructor = "Get"; kind = "get"; role = Request { ops = [] } };
    { constructor = "Got"; kind = "got"; role = Reply };
    { constructor = "Replica"; kind = "replica"; role = Background };
    { constructor = "Del"; kind = "del"; role = Request { ops = [] } };
    { constructor = "Unreplica"; kind = "unreplica"; role = Background };
    { constructor = "Bcast"; kind = "bcast"; role = Request { ops = [] } };
    { constructor = "BcastHit"; kind = "bcast-hit"; role = Reply };
    { constructor = "Task"; kind = "task"; role = Background };
  ]

let kinds entries = List.sort String.compare (List.map (fun e -> e.kind) entries)
let known_kinds = List.sort_uniq String.compare (kinds pgrid @ kinds chord)
