(* tlblint: proven-bounds — index positions come from [hash] (a value in
   [0, slots) by construction: a 63-bit product shifted right by
   63 - log2 slots) or are stepped with [land mask], and [t.index] holds
   exactly 2 * slots words; row bases are [row * stride] for rows that the
   index or a FIFO link handed out, all below [Array.length t.rows / stride].
   Row numbers that come from callers go through the checked accessors. *)

type page_size = Four_k | Two_m

type entry = {
  vpn : int;
  pfn : int;
  pcid : int;
  size : page_size;
  global : bool;
  writable : bool;
  fractured : bool;
  ck_ver : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invlpg_ops : int;
  invpcid_ops : int;
  full_flushes : int;
  fracture_full_flushes : int;
}

(* Keys are packed ints: [tag lsl 13 | pcid lsl 1 | size_bit]. PCIDs fit 12
   bits (kernel PCIDs are small slot numbers, user PCIDs are slot + 2048 <
   4096); 2 MiB entries are tagged by [vpn lsr 9] so a 4 KiB lookup can find
   its covering hugepage. Global entries match regardless of PCID: their key
   drops the PCID and sets [global_tag], so both kinds share one index.
   Tags fit 48 bits (x86-64 virtual page numbers), below [global_tag]. *)
let pcid_bits = 12
let pcid_mask = (1 lsl pcid_bits) - 1
let global_tag = 1 lsl 61
let size_bit = function Four_k -> 0 | Two_m -> 1
let tag_of vpn = function Four_k -> vpn | Two_m -> vpn lsr 9

let key ~pcid ~tag size =
  (tag lsl (pcid_bits + 1)) lor (pcid lsl 1) lor size_bit size

let gkey ~tag size = global_tag lor (tag lsl (pcid_bits + 1)) lor size_bit size

(* Rows: stride-8 records in one flat int array, like the engine's event
   pool. Int stores into an int array allocate nothing and run no write
   barrier, so filling, evicting and recycling a row is allocation-free. *)
let stride = 8
let f_key = 0
let f_vpn = 1
let f_pfn = 2
let f_pcid = 3
let f_flags = 4
let f_ck = 5
let f_prev = 6 (* FIFO links; [f_next] also chains the free list *)
let f_next = 7
let nil = -1

let fl_huge = 1
let fl_global = 2
let fl_writable = 4
let fl_fractured = 8
let flag b f = if b then f else 0

let flags_of e =
  size_bit e.size lor flag e.global fl_global lor flag e.writable fl_writable
  lor flag e.fractured fl_fractured

type t = {
  cap : int;
  mutable rows : int array;
  mutable high : int; (* rows [0, high) have been handed out since the last reset *)
  mutable free : int; (* free-row chain through [f_next] *)
  mutable index : int array;
      (* open-addressed, linear probing: slot [s] holds key at [2s] and row
         at [2s + 1]; row [nil] marks an empty slot. Load stays <= 1/2. *)
  mutable mask : int; (* slots - 1 *)
  mutable shift : int; (* 63 - log2 slots *)
  ends : int array;
      (* head and tail of two intrusive FIFO lists: non-global rows in
         eviction order at [local_list], globals (outside capacity) in
         insertion order at [global_list]. *)
  mutable n_local : int;
  mutable n_global : int;
  mutable n_huge : int; (* live 2 MiB rows; their probes are skipped at 0 *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_insertions : int;
  mutable s_evictions : int;
  mutable s_invlpg : int;
  mutable s_invpcid : int;
  mutable s_full : int;
  mutable s_fracture_full : int;
  mutable pwc : bool;
  mutable fracture : bool;
  mutable flush_meter : (bool -> int -> unit) option;
      (* (is_full_flush, entries dropped) per whole-TLB or whole-PCID
         flush; installed by the metrics layer. *)
}

let initial_slots_log2 = 4

let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  let slots = 1 lsl initial_slots_log2 in
  {
    cap = capacity;
    rows = Array.make (stride * Stdlib.min capacity 8) 0;
    high = 0;
    free = nil;
    index = Array.make (2 * slots) nil;
    mask = slots - 1;
    shift = 63 - initial_slots_log2;
    ends = Array.make 4 nil;
    n_local = 0;
    n_global = 0;
    n_huge = 0;
    s_hits = 0;
    s_misses = 0;
    s_insertions = 0;
    s_evictions = 0;
    s_invlpg = 0;
    s_invpcid = 0;
    s_full = 0;
    s_fracture_full = 0;
    pwc = false;
    fracture = false;
    flush_meter = None;
  }

let set_flush_meter t f = t.flush_meter <- Some f

let capacity t = t.cap
let occupancy t = t.n_local + t.n_global

let check_pcid fn pcid =
  if pcid land lnot pcid_mask <> 0 then invalid_arg (fn ^ ": pcid out of range")

(* ----- rows ----- *)

let get t row f = Array.unsafe_get t.rows ((row * stride) + f)
let set t row f v = Array.unsafe_set t.rows ((row * stride) + f) v

(* Storage doubles up to capacity; only globals, which sit outside it, can
   push it further. *)
let grow_rows t =
  let n = Array.length t.rows / stride in
  let n' = if n < t.cap then Stdlib.min t.cap (2 * n) else 2 * n in
  let rows = Array.make (stride * n') 0 in
  Array.blit t.rows 0 rows 0 (stride * n);
  t.rows <- rows

let alloc_row t =
  if t.free <> nil then begin
    let row = t.free in
    t.free <- get t row f_next;
    row
  end
  else begin
    if t.high * stride = Array.length t.rows then grow_rows t;
    let row = t.high in
    t.high <- row + 1;
    row
  end

(* A list's head sits at [t.ends.(l)], its tail at [t.ends.(l + 1)]. *)
let local_list = 0
let global_list = 2
let head t l = t.ends.(l)
let tail t l = t.ends.(l + 1)
let list_of t row =
  if get t row f_flags land fl_global <> 0 then global_list else local_list

let append t row =
  let l = list_of t row in
  let last = tail t l in
  set t row f_prev last;
  set t row f_next nil;
  if last = nil then t.ends.(l) <- row else set t last f_next row;
  t.ends.(l + 1) <- row

let unlink t row =
  let l = list_of t row and prev = get t row f_prev and next = get t row f_next in
  if prev = nil then t.ends.(l) <- next else set t prev f_next next;
  if next = nil then t.ends.(l + 1) <- prev else set t next f_prev prev

(* ----- index ----- *)

(* Multiplicative (Fibonacci) hash, top bits: adjacent tags — the common
   access pattern — spread across slots. *)
let hash t k = (k * 0x2545f4914f6cdd1d) lsr t.shift

(* Slot holding [key], or [nil]. Top-level recursion: no closure per probe. *)
let rec slot_from index mask key s =
  let row = Array.unsafe_get index ((2 * s) + 1) in
  if row = nil then nil
  else if Array.unsafe_get index (2 * s) = key then s
  else slot_from index mask key ((s + 1) land mask)

let slot_of t key = slot_from t.index t.mask key (hash t key)

(* Row holding [key], or [nil]. *)
let probe t key =
  let s = slot_of t key in
  if s = nil then nil else Array.unsafe_get t.index ((2 * s) + 1)

let rec free_slot_from index mask s =
  if Array.unsafe_get index ((2 * s) + 1) = nil then s
  else free_slot_from index mask ((s + 1) land mask)

let place t key row =
  let s = free_slot_from t.index t.mask (hash t key) in
  Array.unsafe_set t.index (2 * s) key;
  Array.unsafe_set t.index ((2 * s) + 1) row

let grow_index t =
  let old = t.index in
  let slots = 2 * (t.mask + 1) in
  t.index <- Array.make (2 * slots) nil;
  t.mask <- slots - 1;
  t.shift <- t.shift - 1;
  for s = 0 to (Array.length old / 2) - 1 do
    let row = Array.unsafe_get old ((2 * s) + 1) in
    if row <> nil then place t (Array.unsafe_get old (2 * s)) row
  done

(* Backward-shift deletion: walk the cluster after the hole and pull back
   every entry whose probe path crosses it, so no tombstones are needed. *)
let index_remove t s =
  let index = t.index and mask = t.mask in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while Array.unsafe_get index ((2 * !j) + 1) <> nil do
    let k = Array.unsafe_get index (2 * !j) in
    if (!j - hash t k) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set index (2 * !hole) k;
      Array.unsafe_set index ((2 * !hole) + 1) (Array.unsafe_get index ((2 * !j) + 1));
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Array.unsafe_set index ((2 * !hole) + 1) nil

(* ----- entry points ----- *)

let find t ~pcid ~vpn =
  let r = probe t (key ~pcid ~tag:vpn Four_k) in
  if r <> nil then r
  else
    let r = if t.n_global = 0 then nil else probe t (gkey ~tag:vpn Four_k) in
    if r <> nil || t.n_huge = 0 then r
    else
      let tag = vpn lsr 9 in
      let r = probe t (key ~pcid ~tag Two_m) in
      if r <> nil || t.n_global = 0 then r else probe t (gkey ~tag Two_m)

let lookup t ~pcid ~vpn =
  check_pcid "Tlb.lookup" pcid;
  let r = find t ~pcid ~vpn in
  if r <> nil then t.s_hits <- t.s_hits + 1 else t.s_misses <- t.s_misses + 1;
  r

let mem t ~pcid ~vpn =
  check_pcid "Tlb.mem" pcid;
  find t ~pcid ~vpn <> nil

(* Take the row at index slot [s] out of the index, its list and the
   population counts, and put it on the free chain. *)
let remove_at t s =
  let row = Array.unsafe_get t.index ((2 * s) + 1) in
  index_remove t s;
  unlink t row;
  let flags = get t row f_flags in
  if flags land fl_global <> 0 then t.n_global <- t.n_global - 1
  else t.n_local <- t.n_local - 1;
  if flags land fl_huge <> 0 then t.n_huge <- t.n_huge - 1;
  set t row f_next t.free;
  t.free <- row

let remove_key t key =
  let s = slot_of t key in
  if s <> nil then remove_at t s

let write_row t row e =
  set t row f_vpn e.vpn;
  set t row f_pfn e.pfn;
  set t row f_pcid e.pcid;
  set t row f_flags (flags_of e);
  set t row f_ck e.ck_ver

let insert t e =
  check_pcid "Tlb.insert" e.pcid;
  t.s_insertions <- t.s_insertions + 1;
  if e.fractured then t.fracture <- true;
  let tag = tag_of e.vpn e.size in
  let key = if e.global then gkey ~tag e.size else key ~pcid:e.pcid ~tag e.size in
  let s = slot_of t key in
  if s <> nil then
    (* Overwriting a resident key keeps its FIFO position (FIFO, not LRU)
       and must not evict anything — only a genuinely new key needs room. *)
    write_row t (Array.unsafe_get t.index ((2 * s) + 1)) e
  else begin
    if e.global then t.n_global <- t.n_global + 1
    else begin
      while t.n_local >= t.cap do
        remove_key t (get t (head t local_list) f_key);
        t.s_evictions <- t.s_evictions + 1
      done;
      t.n_local <- t.n_local + 1
    end;
    if e.size = Two_m then t.n_huge <- t.n_huge + 1;
    let row = alloc_row t in
    set t row f_key key;
    write_row t row e;
    append t row;
    if 2 * (t.n_local + t.n_global) > t.mask + 1 then grow_index t;
    place t key row
  end

let full_flush_internal t =
  (match t.flush_meter with Some f -> f true (occupancy t) | None -> ());
  if occupancy t > 0 then Array.fill t.index 0 (Array.length t.index) nil;
  t.high <- 0;
  t.free <- nil;
  Array.fill t.ends 0 4 nil;
  t.n_local <- 0;
  t.n_global <- 0;
  t.n_huge <- 0;
  t.pwc <- false;
  t.fracture <- false

let flush_all t =
  t.s_full <- t.s_full + 1;
  full_flush_internal t

(* A selective flush on a fractured TLB is promoted to a full flush. *)
let fracture_promote t =
  t.s_fracture_full <- t.s_fracture_full + 1;
  full_flush_internal t

let drop_selective t ~pcid ~vpn ~drop_globals =
  remove_key t (key ~pcid ~tag:vpn Four_k);
  if t.n_huge > 0 then remove_key t (key ~pcid ~tag:(vpn lsr 9) Two_m);
  if drop_globals && t.n_global > 0 then begin
    remove_key t (gkey ~tag:vpn Four_k);
    if t.n_huge > 0 then remove_key t (gkey ~tag:(vpn lsr 9) Two_m)
  end

let invlpg t ~current_pcid ~vpn =
  check_pcid "Tlb.invlpg" current_pcid;
  t.s_invlpg <- t.s_invlpg + 1;
  if t.fracture then fracture_promote t
  else begin
    drop_selective t ~pcid:current_pcid ~vpn ~drop_globals:true;
    t.pwc <- false
  end

let drop t ~pcid ~vpn =
  check_pcid "Tlb.drop" pcid;
  drop_selective t ~pcid ~vpn ~drop_globals:false

let invpcid_addr t ~pcid ~vpn =
  check_pcid "Tlb.invpcid_addr" pcid;
  t.s_invpcid <- t.s_invpcid + 1;
  if t.fracture then fracture_promote t
  else drop_selective t ~pcid ~vpn ~drop_globals:false

(* Drop every non-global row of [pcid], walking the FIFO list. *)
let drop_pcid t ~pcid =
  let dropped = ref 0 and row = ref (head t local_list) in
  while !row <> nil do
    let next = get t !row f_next in
    if get t !row f_pcid = pcid then begin
      remove_key t (get t !row f_key);
      incr dropped
    end;
    row := next
  done;
  match t.flush_meter with Some f -> f false !dropped | None -> ()

let flush_pcid t ~pcid =
  check_pcid "Tlb.flush_pcid" pcid;
  t.s_invpcid <- t.s_invpcid + 1;
  drop_pcid t ~pcid

let cr3_flush t ~pcid =
  check_pcid "Tlb.cr3_flush" pcid;
  drop_pcid t ~pcid

(* ----- row accessors (checked: rows come from callers) ----- *)

let checked t row f =
  if row < 0 || row >= t.high then invalid_arg "Tlb: not a row of this TLB";
  (row * stride) + f

let vpn t row = t.rows.(checked t row f_vpn)
let pfn t row = t.rows.(checked t row f_pfn)
let writable t row = t.rows.(checked t row f_flags) land fl_writable <> 0
let ck_ver t row = t.rows.(checked t row f_ck)
let set_ck_ver t row v = t.rows.(checked t row f_ck) <- v

let pwc_warm t = t.pwc
let warm_pwc t = t.pwc <- true
let fracture_flag t = t.fracture

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    insertions = t.s_insertions;
    evictions = t.s_evictions;
    invlpg_ops = t.s_invlpg;
    invpcid_ops = t.s_invpcid;
    full_flushes = t.s_full;
    fracture_full_flushes = t.s_fracture_full;
  }

let reset_stats t =
  t.s_hits <- 0;
  t.s_misses <- 0;
  t.s_insertions <- 0;
  t.s_evictions <- 0;
  t.s_invlpg <- 0;
  t.s_invpcid <- 0;
  t.s_full <- 0;
  t.s_fracture_full <- 0

let entry_of t row =
  let flags = get t row f_flags in
  {
    vpn = get t row f_vpn;
    pfn = get t row f_pfn;
    pcid = get t row f_pcid;
    size = (if flags land fl_huge <> 0 then Two_m else Four_k);
    global = flags land fl_global <> 0;
    writable = flags land fl_writable <> 0;
    fractured = flags land fl_fractured <> 0;
    ck_ver = get t row f_ck;
  }

(* Oldest first: the FIFO list back to front, then the globals. *)
let entries t =
  let rec collect row acc =
    if row = nil then acc else collect (get t row f_prev) (entry_of t row :: acc)
  in
  collect (tail t local_list) (collect (tail t global_list) [])

let pp_stats fmt s =
  Format.fprintf fmt
    "hits=%d misses=%d ins=%d evict=%d invlpg=%d invpcid=%d full=%d fracture-full=%d"
    s.hits s.misses s.insertions s.evictions s.invlpg_ops s.invpcid_ops
    s.full_flushes s.fracture_full_flushes
