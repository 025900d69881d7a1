(* Loop / index variables with globally unique identifiers.

   Variables are the atoms of the symbolic index algebra ([Ixexpr]) and of
   lowered loop nests.  Identity is the integer [id]; [name] is only used
   for printing.  Fresh identifiers come from a global atomic counter, which
   keeps substitution and environment lookup trivially correct across
   modules — and across domains, should lowering ever run off the main
   domain (the parallel measurement engine keeps lowering serial, but
   nothing downstream may depend on ids being dense). *)

type t = { id : int; name : string }

let counter = Atomic.make 0

let fresh name = { id = Atomic.fetch_and_add counter 1 + 1; name }

let id v = v.id
let name v = v.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

let pp ppf v = Fmt.pf ppf "%s#%d" v.name v.id

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
