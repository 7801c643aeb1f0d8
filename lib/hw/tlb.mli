(** Per-core TLB model: PCID-tagged, capacity-bounded, with a page-walk
    (paging-structure) cache and Intel's page-fracturing full-flush quirk.

    Semantics follow the Intel SDM as described in the paper:
    - INVLPG invalidates one virtual address in the {e current} PCID,
      including global entries, and flushes the entire paging-structure
      cache (§3.4).
    - INVPCID in individual-address mode invalidates one address in {e any}
      PCID and leaves unrelated paging-structure-cache entries alone.
    - A CR3 write flushes the non-global entries of the loaded PCID.
    - Under virtualization, if any cached translation came from a fractured
      guest hugepage (guest 2 MiB backed by host 4 KiB), {e any} selective
      flush degenerates to a full TLB flush (paper §7, Table 4). *)

type page_size = Four_k | Two_m

type entry = {
  vpn : int;  (** virtual page number in 4 KiB units (base of the page) *)
  pfn : int;  (** physical frame number backing [vpn] *)
  pcid : int;  (** must fit 12 bits (0..4095) *)
  size : page_size;
  global : bool;  (** G-bit entries survive CR3 writes *)
  writable : bool;
  fractured : bool;  (** produced by a guest-2M x host-4K nested walk *)
  ck_ver : int;
      (** scratch for {!Core.Checker}: the packed page-table version this
          entry was last validated against, [-1] when never validated. Not
          part of the hardware model. {!insert} copies it into the row;
          afterwards it is read and written through {!ck_ver} and
          {!set_ck_ver}. *)
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invlpg_ops : int;
  invpcid_ops : int;
  full_flushes : int;
  fracture_full_flushes : int;  (** selective flushes promoted to full *)
}

type t

(** [create ~capacity ()]: fully associative, FIFO eviction over the
    non-global entries; global entries sit outside [capacity]. Default
    capacity 1536 (Skylake STLB-sized). Storage starts small and doubles as
    entries arrive.

    Every entry point that takes a PCID raises [Invalid_argument] when it
    is outside 0..4095. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int
val occupancy : t -> int

(** [set_flush_meter t f] installs a flush observer: [f full dropped] is
    called with the number of entries dropped by each whole-TLB flush
    ([full = true]: flush_all and fracture promotions) or whole-PCID drop
    ([full = false]: flush_pcid / cr3_flush). Used by the metrics layer. *)
val set_flush_meter : t -> (bool -> int -> unit) -> unit

(** [lookup t ~pcid ~vpn] checks the 4 KiB mapping, the global 4 KiB
    mapping, a covering 2 MiB mapping and a covering global 2 MiB mapping,
    in that order. Counts a hit or miss. Returns the hit's row, or [-1] on a
    miss. A row stays valid until the next call that inserts into or
    flushes [t]; read it with the accessors below. *)
val lookup : t -> pcid:int -> vpn:int -> int

(** Is the translation present (no stats recorded)? *)
val mem : t -> pcid:int -> vpn:int -> bool

(** Base VPN of the page a row maps (a 2 MiB row's base is 512-aligned). *)
val vpn : t -> int -> int

(** Frame backing {!vpn}. *)
val pfn : t -> int -> int

val writable : t -> int -> bool

(** The row's {!entry.ck_ver} scratch word. *)
val ck_ver : t -> int -> int

val set_ck_ver : t -> int -> int -> unit

(** Copy [e] into the TLB. Overwriting a resident translation keeps its
    FIFO position; a new non-global translation at capacity first evicts
    the oldest one. *)
val insert : t -> entry -> unit

(** INVLPG: selective flush of [vpn] in the current PCID [current_pcid];
    also drops global entries for that address and cools the
    paging-structure cache. Promoted to a full flush when the fracture flag
    is set. *)
val invlpg : t -> current_pcid:int -> vpn:int -> unit

(** INVPCID individual-address mode: selective flush of [vpn] under [pcid];
    paging-structure cache survives. Promoted to a full flush when the
    fracture flag is set. *)
val invpcid_addr : t -> pcid:int -> vpn:int -> unit

(** Drop the translation for [vpn] under [pcid] with no instruction
    side-effects: models the hardware's invalidation of a faulting PTE and
    the invalidation a memory access performs after a PTE change (the CoW
    trick of paper §4.1). Leaves the paging-structure cache warm and never
    promotes to a full flush. *)
val drop : t -> pcid:int -> vpn:int -> unit

(** INVPCID single-context mode: drop every entry of [pcid]. *)
val flush_pcid : t -> pcid:int -> unit

(** CR3 write: drop non-global entries of [pcid]. *)
val cr3_flush : t -> pcid:int -> unit

(** Drop everything, globals included (INVPCID all-contexts). *)
val flush_all : t -> unit

(** Paging-structure cache temperature; cold walks cost more. Walks warm it,
    INVLPG and full flushes cool it. *)
val pwc_warm : t -> bool

val warm_pwc : t -> unit

(** True once a fractured entry was inserted; cleared by full flushes. *)
val fracture_flag : t -> bool

val stats : t -> stats
val reset_stats : t -> unit

(** All current entries (testing/inspection): non-global entries oldest
    first, i.e. in eviction order, then the globals in insertion order. *)
val entries : t -> entry list

val pp_stats : Format.formatter -> stats -> unit
