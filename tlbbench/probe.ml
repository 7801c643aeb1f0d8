(* What the drivers record around each call into the simulator's public
   API. Untraced, a probe keeps only the simulated duration of every
   access and flush-issuing syscall (the sim_* metrics need them). Traced,
   it also keeps one simulated-time span per call. Everything lives in
   flat int buffers and is read after the cell has run. *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let to_array t = Array.sub t.a 0 t.n

  let append ~dst src =
    for i = 0 to src.n - 1 do
      push dst src.a.(i)
    done
end

(* Span kinds: the driver calls a simulated-time span can cover. *)
let k_read = 0
let k_write = 1
let k_compute = 2
let k_touch = 3
let k_mmap = 4
let k_munmap = 5
let k_madvise = 6
let k_fdatasync = 7
let kind_names = [| "read"; "write"; "compute"; "touch"; "mmap"; "munmap"; "madvise_dontneed"; "fdatasync" |]
let n_kinds = Array.length kind_names

(* The syscalls whose per-call cycles are reported, by span kind. *)
let syscall_kinds = [ k_mmap; k_munmap; k_madvise; k_fdatasync ]

type t = {
  traced : bool;
  access : Ibuf.t;  (** simulated cycles of each Access.read/write *)
  calls : Ibuf.t array;  (** simulated cycles of each call, by kind *)
  spans : Ibuf.t;  (** traced only: (kind, cpu, start, end) quadruples *)
}

let create ~traced =
  {
    traced;
    access = Ibuf.create ();
    calls = Array.init n_kinds (fun _ -> Ibuf.create ());
    spans = Ibuf.create ();
  }

let span_count t = Ibuf.length t.spans / 4

(* [record t ~kind ~cpu t0 t1] notes one driver call that ran from
   simulated time [t0] to [t1] on [cpu]. *)
let record t ~kind ~cpu t0 t1 =
  let d = t1 - t0 in
  if kind = k_read || kind = k_write then Ibuf.push t.access d
  else if kind >= k_mmap then Ibuf.push t.calls.(kind) d;
  if t.traced then begin
    Ibuf.push t.spans kind;
    Ibuf.push t.spans cpu;
    Ibuf.push t.spans t0;
    Ibuf.push t.spans t1
  end
