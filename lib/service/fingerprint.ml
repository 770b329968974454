(** Canonical IR digests — see fingerprint.mli. *)

open Spt_ir

let schema = "spt-fp-v1"

(* ------------------------------------------------------------------ *)
(* Canonical serialization.

   Blocks are renumbered in DFS-preorder over the terminator edges from
   the entry block, so the digest depends only on the control-flow
   shape, not on the ids the block generator happened to hand out (and
   unreachable blocks do not contribute at all).  Instruction ids are
   omitted for the same reason; virtual-register ids are kept — they
   are semantic (they name the dataflow), and lowering allocates them
   deterministically from the AST.

   The text is written straight into the buffer by the renderers below
   rather than through the IR's debug printers ([Ir.pp_operand],
   [Ir_pretty]): it is part of every cache key under [schema], so an
   edit to a debug printer must not move it. *)

let add_int buf n = Buffer.add_string buf (string_of_int n)

let add_var buf (v : Ir.var) =
  Buffer.add_char buf '%';
  Buffer.add_string buf v.Ir.vname;
  Buffer.add_char buf '.';
  add_int buf v.Ir.vid

let add_operand buf = function
  | Ir.Reg v -> add_var buf v
  | Ir.Imm_i n -> Buffer.add_string buf (Int64.to_string n)
  | Ir.Imm_f f -> Buffer.add_string buf (Printf.sprintf "%h" f)

let add_region buf = function
  | Ir.Rsym s ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s.Ir.sname
  | Ir.Rparam (i, name) ->
    Buffer.add_string buf "@param";
    add_int buf i;
    Buffer.add_char buf ':';
    Buffer.add_string buf name

let add_ty buf ty = Buffer.add_string buf (Ir.string_of_ty ty)

let add_def buf v =
  add_var buf v;
  Buffer.add_string buf " := "

let add_arg buf = function
  | Ir.Aop o -> add_operand buf o
  | Ir.Aarr r -> add_region buf r

(* one instruction, without its id; phi arms carry predecessor block
   ids, so they are remapped and sorted to keep the text canonical *)
let add_kind buf ~remap = function
  | Ir.Move (d, o) ->
    add_def buf d;
    add_operand buf o
  | Ir.Unop (d, op, o) ->
    add_def buf d;
    Buffer.add_string buf (Ir.string_of_unop op);
    Buffer.add_char buf ' ';
    add_operand buf o
  | Ir.Binop (d, op, a, b) ->
    add_def buf d;
    Buffer.add_string buf (Ir.string_of_binop op);
    Buffer.add_char buf ' ';
    add_operand buf a;
    Buffer.add_string buf ", ";
    add_operand buf b
  | Ir.Load (d, r, idx) ->
    add_def buf d;
    Buffer.add_string buf "load ";
    add_region buf r;
    Buffer.add_char buf '[';
    add_operand buf idx;
    Buffer.add_char buf ']'
  | Ir.Store (r, idx, src) ->
    Buffer.add_string buf "store ";
    add_region buf r;
    Buffer.add_char buf '[';
    add_operand buf idx;
    Buffer.add_string buf "] := ";
    add_operand buf src
  | Ir.Call (d, callee, args) ->
    Option.iter (add_def buf) d;
    Buffer.add_string buf "call ";
    Buffer.add_string buf callee;
    Buffer.add_char buf '(';
    List.iteri
      (fun k a ->
        if k > 0 then Buffer.add_string buf ", ";
        add_arg buf a)
      args;
    Buffer.add_char buf ')'
  | Ir.Phi (v, incoming) ->
    Buffer.add_string buf "phi ";
    add_var buf v;
    Buffer.add_string buf " <-";
    List.iter
      (fun (pred, op) ->
        Buffer.add_string buf " b";
        add_int buf pred;
        Buffer.add_char buf ':';
        add_operand buf op)
      (List.sort compare
         (List.map (fun (pred, op) -> (remap pred, op)) incoming))
  | Ir.Spt_fork l ->
    Buffer.add_string buf "spt_fork loop";
    add_int buf l
  | Ir.Spt_kill l ->
    Buffer.add_string buf "spt_kill loop";
    add_int buf l

let add_param buf = function
  | Ir.Pscalar v ->
    add_var buf v;
    Buffer.add_string buf ": ";
    add_ty buf v.Ir.vty
  | Ir.Parray (slot, name, ty) ->
    Buffer.add_string buf name;
    Buffer.add_string buf ": ";
    add_ty buf ty;
    Buffer.add_string buf "[] (slot ";
    add_int buf slot;
    Buffer.add_char buf ')'

let add_block_ref buf bid =
  Buffer.add_char buf 'b';
  add_int buf bid

let add_func buf (f : Ir.func) =
  let order = ref [] in
  let renum : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec visit bid =
    if not (Hashtbl.mem renum bid) then begin
      Hashtbl.replace renum bid (Hashtbl.length renum);
      order := bid :: !order;
      match (Ir.block f bid).Ir.term with
      | Ir.Jump b -> visit b
      | Ir.Br (_, b1, b2) ->
        visit b1;
        visit b2
      | Ir.Ret _ -> ()
    end
  in
  visit f.Ir.entry;
  let remap bid =
    match Hashtbl.find_opt renum bid with Some i -> i | None -> -1
  in
  Buffer.add_string buf "fn ";
  Buffer.add_string buf f.Ir.fname;
  List.iter
    (fun p ->
      Buffer.add_char buf ' ';
      add_param buf p)
    f.Ir.fparams;
  Buffer.add_string buf " -> ";
  (match f.Ir.fret with
  | Some ty -> add_ty buf ty
  | None -> Buffer.add_string buf "void");
  Buffer.add_char buf '\n';
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      add_block_ref buf (remap bid);
      (match b.Ir.loop_origin with
      | Some `For -> Buffer.add_string buf " @for"
      | Some `While -> Buffer.add_string buf " @while"
      | Some `Do -> Buffer.add_string buf " @do"
      | None -> ());
      Buffer.add_char buf '\n';
      List.iter
        (fun (i : Ir.instr) ->
          Buffer.add_string buf "  ";
          add_kind buf ~remap i.Ir.kind;
          Buffer.add_char buf '\n')
        b.Ir.instrs;
      (match b.Ir.term with
      | Ir.Jump t ->
        Buffer.add_string buf "  jump ";
        add_block_ref buf (remap t)
      | Ir.Br (c, t1, t2) ->
        Buffer.add_string buf "  br ";
        add_operand buf c;
        Buffer.add_char buf ' ';
        add_block_ref buf (remap t1);
        Buffer.add_char buf ' ';
        add_block_ref buf (remap t2)
      | Ir.Ret None -> Buffer.add_string buf "  ret"
      | Ir.Ret (Some op) ->
        Buffer.add_string buf "  ret ";
        add_operand buf op);
      Buffer.add_char buf '\n')
    (List.rev !order)

let add_sym buf (s : Ir.sym) =
  Buffer.add_string buf "g ";
  Buffer.add_string buf s.Ir.sname;
  Buffer.add_char buf ':';
  add_ty buf s.Ir.selt;
  Buffer.add_char buf '[';
  add_int buf s.Ir.ssize;
  Buffer.add_char buf ']';
  (match s.Ir.sinit with
  | None -> ()
  | Some words ->
    Buffer.add_string buf " =";
    List.iter
      (fun w ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Int64.to_string w))
      words);
  Buffer.add_char buf '\n'

let digest_of_buf buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let func f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf schema;
  Buffer.add_char buf '\n';
  add_func buf f;
  digest_of_buf buf

let program (p : Ir.program) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf schema;
  Buffer.add_char buf '\n';
  List.iter (add_sym buf)
    (List.sort (fun (a : Ir.sym) b -> compare a.Ir.sname b.Ir.sname) p.Ir.globals);
  List.iter
    (fun (_, f) -> add_func buf f)
    (List.sort (fun (a, _) (b, _) -> compare a b) p.Ir.funcs);
  digest_of_buf buf

let key_of_digest ~config_key digest =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ schema; config_key; digest ]))

let key ~config_key prog = key_of_digest ~config_key (program prog)

(* ------------------------------------------------------------------ *)
(* The source memo: a {!Slot_memo} keyed by the whole text, so a lookup
   hits only when the stored text equals the asked text byte for byte.
   Sound because the front end maps one text to one IR within a build
   (every warm cache hit relies on the same), and the memo never
   outlives the process. *)

let memo : (string, string) Slot_memo.t =
  Slot_memo.create Slot_memo.source_slots

let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0

let source text =
  let hash = Hashtbl.hash text in
  match Slot_memo.find memo ~hash ~equal:String.equal text with
  | Some digest ->
    Atomic.incr memo_hits;
    digest
  | None ->
    Atomic.incr memo_misses;
    (* a text the front end rejects raises here and leaves no entry *)
    let digest = program (Spt_driver.Pipeline.front_end text) in
    if String.length text <= Slot_memo.source_max_text then
      Slot_memo.set memo ~hash text digest;
    digest

type memo_stats = { hits : int; misses : int }

let memo_stats () =
  { hits = Atomic.get memo_hits; misses = Atomic.get memo_misses }
