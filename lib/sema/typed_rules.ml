(* The typed lint rules: one Tast_iterator pass per compilation unit.

   Each rule matches a resolved [Path.t] in the typedtree, so a rule
   sees what the compiler resolved — [Hashtbl.find] reached through an
   [open], a user-defined [compare] that shadows the polymorphic one —
   and never sees comments or string literals, which are not
   expressions.  Suppression is the shared [lint: allow <rule>] comment
   on the finding's line or the line above (Analysis.Findings). *)

let rules =
  [
    ("obj-magic", "Obj.magic is GC-unsafe");
    ( "poly-compare",
      "polymorphic compare; use a typed compare (Int.compare, \
       Float.compare, Sim_time.compare, ...)" );
    ( "bare-ignore",
      "ignore applied to a computed value discards a result; bind it as \
       let (_ : ty) = ... or annotate the intent" );
    ( "hashtbl-find",
      "Hashtbl.find raises Not_found; prefer find_opt or annotate the \
       key-present invariant" );
    ( "float-eq",
      "exact float =/<> against a float constant; compare against a \
       tolerance or restructure" );
    ( "sema-domain-parallel",
      "Domain/Mutex/Condition/Atomic/Thread primitive outside the parallel \
       runtime whitelist: simulation code must stay single-domain \
       deterministic, parallelism lives in Engine.Domain_pool" );
    ("missing-mli", "public library module without an .mli interface");
  ]

(* The only files allowed to touch multicore primitives: the pool itself,
   the scheduler's atomic id counter, and the packet layer's atomic uid /
   domain-local free list.  Everything else must go through
   Engine.Domain_pool so experiment code cannot grow its own ad hoc
   threading. *)
let parallel_whitelist =
  [
    "lib/engine/domain_pool.ml";
    "lib/engine/scheduler.ml";
    "lib/netsim/packet.ml";
    "lib/netsim/packet_pool.ml";
  ]

let parallel_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread" ]

(* [Stdlib.Hashtbl.find] and [Stdlib__Hashtbl.find] both become
   [["Hashtbl"; "find"]]; paths outside the standard library keep their
   head only for the threads library's own [Thread], so a local
   [compare] or [Foo.compare] never matches *)
let stdlib_parts p =
  match Race_extract.parts_of_path p with
  | "Stdlib" :: rest -> rest
  | "Thread" :: _ as parts -> parts
  | m :: rest
    when String.length m > 8 && String.sub m 0 8 = "Stdlib__" ->
    String.sub m 8 (String.length m - 8) :: rest
  | _ -> []

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let is_float_constant (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_float _) -> true
  | _ -> false

(* an identifier or a field read of one ([t.conga]): ignoring it keeps
   a binding or field live and discards nothing computed *)
let rec is_path (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident _ -> true
  | Typedtree.Texp_field (r, _, _) -> is_path r
  | _ -> false

let ident_finding ~file parts =
  match parts with
  | [ "Obj"; "magic" ] ->
    Some ("obj-magic", "Obj.magic sentinel; use an option slot or a real dummy value")
  | [ "compare" ] ->
    Some ("poly-compare", "Stdlib.compare is polymorphic; pass the element type's compare")
  | [ "Hashtbl"; "find" ] ->
    Some ("hashtbl-find", "raises Not_found on absent keys; prefer Hashtbl.find_opt")
  | [ "Atomic"; "get" ] -> None
  | m :: _ :: _
    when List.mem m parallel_modules && not (List.mem file parallel_whitelist) ->
    Some
      ( "sema-domain-parallel",
        Printf.sprintf
          "%s: multicore primitives are confined to Engine.Domain_pool and \
           the packet layer; fan work out with Domain_pool.map instead"
          (String.concat "." parts) )
  | _ -> None

(* [ignore] and [=]/[<>] are judged at their application, where the
   argument is visible; the typer has already turned [ignore @@ e] and
   [e |> ignore] into plain applications *)
let apply_finding parts args =
  let positional =
    List.filter_map
      (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  match (parts, positional) with
  | [ "ignore" ], [ arg ] when not (is_path arg) ->
    Some
      ( "bare-ignore",
        "result silently discarded; bind it as let (_ : ty) = ... or \
         annotate why it is safe to drop" )
  | [ ("=" | "<>") ], _ when List.exists is_float_constant positional ->
    Some ("float-eq", "exact float comparison")
  | _ -> None

let analyze ~source_root (u : Cmt_load.unit_info) =
  let file = u.Cmt_load.u_source in
  let findings = ref [] in
  let add loc (rule, message) =
    let line = line_of loc in
    match
      Analysis.Findings.allow_at
        ~marker:(Analysis.Findings.lint_marker rule)
        ~source_root file line
    with
    | Some _ -> ()
    | None ->
      findings := Analysis.Findings.make ~rule ~file ~line message :: !findings
  in
  let expr self (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      Option.iter (add e.Typedtree.exp_loc) (ident_finding ~file (stdlib_parts p))
    | Typedtree.Texp_apply
        (({ exp_desc = Typedtree.Texp_ident (p, _, _); _ } as fn), args) ->
      Option.iter (add fn.Typedtree.exp_loc) (apply_finding (stdlib_parts p) args)
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.structure it u.Cmt_load.u_structure;
  Analysis.Findings.sort !findings

let missing_mli ~source_root ~ml_files ~mli_files =
  let interfaces =
    List.map Filename.remove_extension mli_files |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun ml ->
      if List.mem (Filename.remove_extension ml) interfaces then None
      else
        match
          Analysis.Findings.allow_file
            ~marker:(Analysis.Findings.lint_marker "missing-mli")
            ~source_root ml
        with
        | Some _ -> None
        | None ->
          Some
            (Analysis.Findings.make ~rule:"missing-mli" ~file:ml ~line:1
               "library module has no .mli; every public module must \
                declare its interface"))
    ml_files
