exception Out_of_memory

type t = {
  frames : int;
  used : Bytes.t;  (* 1 byte per frame: 0 free, 1 allocated *)
  refcounts : int array;
  generations : int array;
  free_list : int Queue.t;  (* singles *)
  mutable next_fresh : int;  (* frames never yet allocated, bump pointer *)
  mutable huge_floor : int;  (* hugepage runs grow down from the top *)
  mutable n_allocated : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_alloc.create: frames must be positive";
  {
    frames;
    used = Bytes.make frames '\000';
    refcounts = Array.make frames 0;
    generations = Array.make frames 0;
    free_list = Queue.create ();
    next_fresh = 0;
    huge_floor = frames;
    n_allocated = 0;
  }

let is_allocated t pfn =
  pfn >= 0 && pfn < t.frames && Bytes.get t.used pfn = '\001'

let mark t pfn v =
  Bytes.set t.used pfn (if v then '\001' else '\000')

let alloc t =
  let pfn =
    match Queue.take_opt t.free_list with
    | Some pfn -> pfn
    | None ->
        if t.next_fresh >= t.huge_floor then raise Out_of_memory
        else begin
          let pfn = t.next_fresh in
          t.next_fresh <- t.next_fresh + 1;
          pfn
        end
  in
  assert (not (is_allocated t pfn));
  mark t pfn true;
  t.refcounts.(pfn) <- 1;
  t.n_allocated <- t.n_allocated + 1;
  pfn

let ref_get t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.ref_get: frame %d not allocated" pfn);
  t.refcounts.(pfn) <- t.refcounts.(pfn) + 1

let refcount t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.refcount";
  t.refcounts.(pfn)

let alloc_huge t =
  (* The run must be 2 MiB-aligned: round the candidate base down. *)
  let base = (t.huge_floor - Addr.pages_per_huge) land lnot (Addr.pages_per_huge - 1) in
  if base < t.next_fresh then raise Out_of_memory;
  t.huge_floor <- base;
  for pfn = base to base + Addr.pages_per_huge - 1 do
    assert (not (is_allocated t pfn));
    mark t pfn true
  done;
  t.n_allocated <- t.n_allocated + Addr.pages_per_huge;
  base

let free t pfn =
  if not (is_allocated t pfn) then
    invalid_arg (Printf.sprintf "Frame_alloc.free: frame %d not allocated" pfn);
  t.refcounts.(pfn) <- t.refcounts.(pfn) - 1;
  if t.refcounts.(pfn) = 0 then begin
    mark t pfn false;
    t.generations.(pfn) <- t.generations.(pfn) + 1;
    t.n_allocated <- t.n_allocated - 1;
    Queue.push pfn t.free_list
  end

let free_huge t base =
  if base land (Addr.pages_per_huge - 1) <> 0 then
    invalid_arg "Frame_alloc.free_huge: base not hugepage-aligned";
  for pfn = base to base + Addr.pages_per_huge - 1 do
    if not (is_allocated t pfn) then
      invalid_arg (Printf.sprintf "Frame_alloc.free_huge: frame %d not allocated" pfn);
    mark t pfn false;
    t.generations.(pfn) <- t.generations.(pfn) + 1
  done;
  t.n_allocated <- t.n_allocated - Addr.pages_per_huge
(* Hugepage runs are not recycled into the single-frame free list; they are
   rare in the experiments and keeping them apart preserves alignment. *)

let total t = t.frames
let allocated t = t.n_allocated

let generation t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Frame_alloc.generation";
  t.generations.(pfn)
