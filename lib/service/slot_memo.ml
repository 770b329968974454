(** Bounded lock-free memo — see slot_memo.mli. *)

type ('k, 'v) t = ('k * 'v) option Atomic.t array

let create slots = Array.init slots (fun _ -> Atomic.make None)
let slot t hash = t.(hash mod Array.length t)

let find t ~hash ~equal key =
  match Atomic.get (slot t hash) with
  | Some (k, v) when equal k key -> Some v
  | Some _ | None -> None

let set t ~hash key v = Atomic.set (slot t hash) (Some (key, v))

let source_slots = 1024
let source_max_text = 16 * 1024
let reply_slots = 256
let reply_max_text = 64 * 1024
