(* Which shootdown-protocol backend drives remote invalidation. Each
   constructor maps to one [Core.Protocol] backend (see protocol.mli);
   everything protocol-specific in [Core.Shootdown] dispatches on this
   variant exactly once. *)
type protocol = Paper | Oracle | Sync_broadcast | Queue_spin | Freebsd | Unsafe_lazy

let protocol_label = function
  | Paper -> "paper"
  | Oracle -> "oracle"
  | Sync_broadcast -> "sync-broadcast"
  | Queue_spin -> "queue-spin"
  | Freebsd -> "freebsd"
  | Unsafe_lazy -> "unsafe-lazy"

let protocol_of_string = function
  | "paper" -> Some Paper
  | "oracle" -> Some Oracle
  | "sync-broadcast" | "sync" -> Some Sync_broadcast
  | "queue-spin" | "queue" -> Some Queue_spin
  | "freebsd" -> Some Freebsd
  | "unsafe-lazy" -> Some Unsafe_lazy
  | _ -> None

(* The strawman is left out: every sweep over this list must hold. *)
let all_protocols = [ Paper; Oracle; Sync_broadcast; Queue_spin; Freebsd ]

type t = {
  mutable safe : bool;
  mutable concurrent_flush : bool;
  mutable early_ack : bool;
  mutable cacheline_consolidation : bool;
  mutable in_context_flush : bool;
  mutable cow_avoid_flush : bool;
  mutable userspace_batching : bool;
  mutable bug_skip_deferred_flush : bool;
  mutable protocol : protocol;
  mutable spec_pte_recache_p : float;
  mutable full_flush_threshold : int;
  mutable batch_slots : int;
}

let baseline ~safe =
  {
    safe;
    concurrent_flush = false;
    early_ack = false;
    cacheline_consolidation = false;
    in_context_flush = false;
    cow_avoid_flush = false;
    userspace_batching = false;
    bug_skip_deferred_flush = false;
    protocol = Paper;
    spec_pte_recache_p = 0.05;
    full_flush_threshold = 33;
    batch_slots = 4;
  }

let with_protocol protocol ~safe =
  let t = baseline ~safe in
  t.protocol <- protocol;
  t

let freebsd ~safe =
  let t = with_protocol Freebsd ~safe in
  t.full_flush_threshold <- 4096;
  t

let all_general ~safe =
  let t = baseline ~safe in
  t.concurrent_flush <- true;
  t.early_ack <- true;
  t.cacheline_consolidation <- true;
  (* In-context flushing only exists under PTI; harmless to leave off when
     unsafe since there is no user PCID to flush. *)
  t.in_context_flush <- safe;
  t

let all ~safe =
  let t = all_general ~safe in
  t.cow_avoid_flush <- true;
  t.userspace_batching <- true;
  t

(* A fresh record with every field copied (the functional update names one
   field only because the syntax requires one). *)
let copy t = { t with safe = t.safe }

(* Build a cumulative stack: each stage copies the previous one and enables
   one more flag. Sequenced with explicit lets (list-element evaluation
   order is unspecified in OCaml). *)
let cumulative_stack ~safe ~with_base ~with_batching =
  let stack = ref (baseline ~safe) in
  let step label f =
    let t = copy !stack in
    f t;
    stack := t;
    (label, t)
  in
  let base = if with_base then [ ("baseline", copy !stack) ] else [] in
  let s1 =
    step (if with_base then "+concurrent" else "concurrent") (fun t ->
        t.concurrent_flush <- true)
  in
  let s2 = step "+early-ack" (fun t -> t.early_ack <- true) in
  let s3 = step "+cacheline" (fun t -> t.cacheline_consolidation <- true) in
  let s4 =
    if safe then [ step "+in-context" (fun t -> t.in_context_flush <- true) ] else []
  in
  let s5 =
    if with_batching then
      [
        step "+batching" (fun t ->
            t.userspace_batching <- true;
            t.cow_avoid_flush <- true);
      ]
    else []
  in
  base @ [ s1; s2; s3 ] @ s4 @ s5

let cumulative_general ~safe = cumulative_stack ~safe ~with_base:true ~with_batching:false

let cumulative_workload ~safe = cumulative_stack ~safe ~with_base:false ~with_batching:true

(* Canonical value key for the bench harness's cell memoization: every
   field, in declaration order, so two opts with equal keys are
   behaviourally identical. The exhaustive record pattern makes adding a
   field without extending the key a compile error (warning 9), not a
   silent memoization bug. [%h] prints the float exactly. *)
let key
    {
      safe;
      concurrent_flush;
      early_ack;
      cacheline_consolidation;
      in_context_flush;
      cow_avoid_flush;
      userspace_batching;
      bug_skip_deferred_flush;
      protocol;
      spec_pte_recache_p;
      full_flush_threshold;
      batch_slots;
    } =
  Printf.sprintf
    "safe=%b conc=%b eack=%b cline=%b inctx=%b cow=%b ubatch=%b bugskip=%b \
     proto=%s specp=%h fft=%d slots=%d"
    safe concurrent_flush early_ack cacheline_consolidation in_context_flush
    cow_avoid_flush userspace_batching bug_skip_deferred_flush (protocol_label protocol)
    spec_pte_recache_p full_flush_threshold batch_slots

let pp fmt t =
  let flag name b = if b then Some name else None in
  let flags =
    List.filter_map Fun.id
      [
        flag "concurrent" t.concurrent_flush;
        flag "early-ack" t.early_ack;
        flag "cacheline" t.cacheline_consolidation;
        flag "in-context" t.in_context_flush;
        flag "cow" t.cow_avoid_flush;
        flag "batching" t.userspace_batching;
        flag "BUG-SKIP-DEFERRED" t.bug_skip_deferred_flush;
        flag (String.uppercase_ascii (protocol_label t.protocol))
          (t.protocol <> Paper);
      ]
  in
  Format.fprintf fmt "%s mode [%s]"
    (if t.safe then "safe" else "unsafe")
    (String.concat " " flags)
