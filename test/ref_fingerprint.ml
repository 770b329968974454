(** Reference model of the canonical IR rendering behind
    {!Spt_service.Fingerprint}: the same text produced through the IR's
    debug printers ([Ir.pp_operand], [Ir_pretty.pp_kind],
    [Ir_pretty.pp_param]), one [Format.asprintf] per item.  Test code
    only — {!Test_service} checks that [Fingerprint.func] and
    [Fingerprint.program] give the digests this model gives. *)

open Spt_ir

let schema = Spt_service.Fingerprint.schema

let add_operand buf (op : Ir.operand) =
  Buffer.add_string buf (Format.asprintf "%a" Ir.pp_operand op)

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
      Buffer.add_string buf (Format.asprintf "%a" Ir_pretty.pp_param p))
    f.Ir.fparams;
  Buffer.add_string buf " -> ";
  Buffer.add_string buf
    (match f.Ir.fret with Some ty -> Ir.string_of_ty ty | None -> "void");
  Buffer.add_char buf '\n';
  List.iter
    (fun bid ->
      let b = Ir.block f bid in
      Buffer.add_string buf (Printf.sprintf "b%d" (remap bid));
      (match b.Ir.loop_origin with
      | Some `For -> Buffer.add_string buf " @for"
      | Some `While -> Buffer.add_string buf " @while"
      | Some `Do -> Buffer.add_string buf " @do"
      | None -> ());
      Buffer.add_char buf '\n';
      List.iter
        (fun (i : Ir.instr) ->
          (match i.Ir.kind with
          | Ir.Phi (v, incoming) ->
            Buffer.add_string buf (Format.asprintf "  phi %a <-" Ir.pp_var v);
            List.iter
              (fun (pred, op) ->
                Buffer.add_string buf (Printf.sprintf " b%d:" pred);
                add_operand buf op)
              (List.sort compare
                 (List.map (fun (pred, op) -> (remap pred, op)) incoming))
          | kind ->
            Buffer.add_string buf "  ";
            Buffer.add_string buf (Format.asprintf "%a" Ir_pretty.pp_kind kind));
          Buffer.add_char buf '\n')
        b.Ir.instrs;
      (match b.Ir.term with
      | Ir.Jump t -> Buffer.add_string buf (Printf.sprintf "  jump b%d" (remap t))
      | Ir.Br (c, t1, t2) ->
        Buffer.add_string buf "  br ";
        add_operand buf c;
        Buffer.add_string buf (Printf.sprintf " b%d b%d" (remap t1) (remap t2))
      | Ir.Ret None -> Buffer.add_string buf "  ret"
      | Ir.Ret (Some op) ->
        Buffer.add_string buf "  ret ";
        add_operand buf op);
      Buffer.add_char buf '\n')
    (List.rev !order)

let add_sym buf (s : Ir.sym) =
  Buffer.add_string buf
    (Printf.sprintf "g %s:%s[%d]" s.Ir.sname (Ir.string_of_ty s.Ir.selt)
       s.Ir.ssize);
  (match s.Ir.sinit with
  | None -> ()
  | Some words ->
    Buffer.add_string buf " =";
    List.iter
      (fun w -> Buffer.add_string buf (Printf.sprintf " %Ld" w))
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
