(* Implicit 4-ary min-heap over parallel arrays: priorities in an
   unboxed float array, insertion sequence numbers in an int array,
   payloads in a plain array, and per slot the id of the entry's removal
   handle (or [-1]). Compared to an array of entry records this costs
   zero allocation per push, keeps sift loops walking flat unboxed
   memory, and the 4-way branching halves the tree depth — the event
   scheduler is the single hottest structure in the simulator, every
   message delivery passes through it twice.

   Removable entries ([add]) get a handle id from a free stack; [slot_of]
   maps each id in use to its current slot and is updated whenever the
   entry moves, so [remove] finds it in O(1) and re-heaps in O(log n).
   Ids in use never outnumber queued entries, so the id tables grow with
   the heap arrays.

   Slots at or beyond [len] hold [filler]: a popped or removed payload is
   never reachable from the queue.

   Ordering is the total order (priority, seq): seq breaks ties FIFO, so
   the pop sequence is unique and the event loop deterministic. *)

type 'a t = {
  filler : 'a;
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable ids : int array;  (* per slot: handle id, or [-1] *)
  mutable slot_of : int array;  (* per handle id: its slot, or [-1] when free *)
  mutable free_ids : int array;  (* stack of unused handle ids *)
  mutable nfree : int;
  mutable len : int;
  mutable next_seq : int;
}

type handle = { id : int; seq : int }

let no_handle = { id = -1; seq = -1 }

let create ~filler () =
  {
    filler;
    prios = [||];
    seqs = [||];
    vals = [||];
    ids = [||];
    slot_of = [||];
    free_ids = [||];
    nfree = 0;
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

(* (prio, seq) at [i] sorts strictly before (p, s)? *)
let[@inline] lt t i p s =
  let pi = Array.unsafe_get t.prios i in
  pi < p || (pi = p && Array.unsafe_get t.seqs i < s)

(* Room for one more entry (and, as ids in use never outnumber entries,
   a free handle id). *)
let grow t =
  let cap = Array.length t.prios in
  if t.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.prios <- extend t.prios 0.0;
    t.seqs <- extend t.seqs 0;
    t.vals <- extend t.vals t.filler;
    t.ids <- extend t.ids (-1);
    t.slot_of <- extend t.slot_of (-1);
    let free = Array.make ncap 0 in
    Array.blit t.free_ids 0 free 0 t.nfree;
    for id = cap to ncap - 1 do
      free.(t.nfree + id - cap) <- id
    done;
    t.free_ids <- free;
    t.nfree <- t.nfree + ncap - cap
  end

(* Record that handle [id] (if any) now sits at slot [i]. *)
let[@inline] track t i id = if id >= 0 then Array.unsafe_set t.slot_of id i

(* Copy slot [j] into slot [i]. *)
let[@inline] move t ~src:j ~dst:i =
  Array.unsafe_set t.prios i (Array.unsafe_get t.prios j);
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.vals i (Array.unsafe_get t.vals j);
  let id = Array.unsafe_get t.ids j in
  Array.unsafe_set t.ids i id;
  track t i id

(* Write entry (p, s, v, id) at slot [i]. The writers are inlined, so
   [p] stays an unboxed float. *)
let[@inline] place t i p s v id =
  Array.unsafe_set t.prios i p;
  Array.unsafe_set t.seqs i s;
  Array.unsafe_set t.vals i v;
  Array.unsafe_set t.ids i id;
  track t i id

(* Place entry (p, s, v, id) into the hole at [i], moving the hole up
   past larger parents. *)
let[@inline] sift_up t i p s v id =
  let i = ref i in
  while !i > 0 && not (lt t ((!i - 1) / 4) p s) do
    let parent = (!i - 1) / 4 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  place t !i p s v id

(* Place entry (p, s, v, id) into the hole at [i], moving the hole down
   past smaller children. *)
let[@inline] sift_down t i p s v id =
  let n = t.len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let c0 = (4 * !i) + 1 in
    if c0 >= n then continue := false
    else begin
      (* Smallest of up to four children. *)
      let best = ref c0 in
      let last = min (c0 + 3) (n - 1) in
      for c = c0 + 1 to last do
        if lt t c (Array.unsafe_get t.prios !best) (Array.unsafe_get t.seqs !best) then best := c
      done;
      if lt t !best p s then begin
        move t ~src:!best ~dst:!i;
        i := !best
      end
      else continue := false
    end
  done;
  place t !i p s v id

let[@inline] insert t ~priority x id =
  grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let slot = t.len in
  t.len <- slot + 1;
  sift_up t slot priority s x id;
  s

let push t ~priority x = ignore (insert t ~priority x (-1))

let add t ~priority x =
  grow t;
  t.nfree <- t.nfree - 1;
  let id = t.free_ids.(t.nfree) in
  { id; seq = insert t ~priority x id }

(* Take slot [i] out of the heap: free its handle id, refill the hole
   with the last entry and blank the vacated last slot. *)
let delete t i =
  let id = t.ids.(i) in
  if id >= 0 then begin
    t.slot_of.(id) <- -1;
    t.free_ids.(t.nfree) <- id;
    t.nfree <- t.nfree + 1
  end;
  let n = t.len - 1 in
  t.len <- n;
  let p = Array.unsafe_get t.prios n and s = Array.unsafe_get t.seqs n in
  let v = Array.unsafe_get t.vals n and last_id = Array.unsafe_get t.ids n in
  Array.unsafe_set t.vals n t.filler;
  if i < n then begin
    if i > 0 && not (lt t ((i - 1) / 4) p s) then sift_up t i p s v last_id
    else sift_down t i p s v last_id
  end

let pop t =
  if t.len = 0 then None
  else begin
    let top_p = t.prios.(0) and top_v = t.vals.(0) in
    delete t 0;
    Some (top_p, top_v)
  end

let remove t h =
  let i = if h.id >= 0 && h.id < Array.length t.slot_of then t.slot_of.(h.id) else -1 in
  if i >= 0 && t.seqs.(i) = h.seq then begin
    delete t i;
    true
  end
  else false

let peek_priority t = if t.len = 0 then None else Some t.prios.(0)

let clear t =
  t.prios <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.ids <- [||];
  t.slot_of <- [||];
  t.free_ids <- [||];
  t.nfree <- 0;
  t.len <- 0
