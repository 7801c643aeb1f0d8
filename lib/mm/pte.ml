type t = {
  pfn : int;
  present : bool;
  writable : bool;
  user : bool;
  global : bool;
  accessed : bool;
  dirty : bool;
  executable : bool;
  cow : bool;
}

let none =
  {
    pfn = 0;
    present = false;
    writable = false;
    user = false;
    global = false;
    accessed = false;
    dirty = false;
    executable = false;
    cow = false;
  }

let user_data ~pfn = { none with pfn; present = true; writable = true; user = true }

let kernel_data ~pfn = { none with pfn; present = true; writable = true; global = true }

let make_cow t = { t with writable = false; cow = true }

let break_cow t ~new_pfn = { t with pfn = new_pfn; writable = true; cow = false; dirty = true }

let mark_dirty t = { t with dirty = true; accessed = true }
let write_protect t = { t with writable = false }
let clean t = { t with dirty = false }

(* Field-wise: every field is immediate, so this stays allocation-free and
   off the polymorphic-compare runtime (tlblint R1). *)
let equal a b =
  a.pfn = b.pfn && a.present = b.present && a.writable = b.writable
  && a.user = b.user && a.global = b.global && a.accessed = b.accessed
  && a.dirty = b.dirty && a.executable = b.executable && a.cow = b.cow

let pp fmt t =
  let flag c b = if b then c else "-" in
  Format.fprintf fmt "pfn=%d %s%s%s%s%s%s%s%s" t.pfn
    (flag "P" t.present) (flag "W" t.writable) (flag "U" t.user)
    (flag "G" t.global) (flag "A" t.accessed) (flag "D" t.dirty)
    (flag "X" t.executable) (flag "C" t.cow)
