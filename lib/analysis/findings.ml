(* The one finding type of clove-check.

   Every analysis — the typed lint rules, the parsetree sema rules,
   missing-mli, race and alloc — emits [t], with the same lifecycle:
   deterministic sorted serialization, a committed baseline keyed by
   (rule, file, target) — line numbers deliberately excluded so
   unrelated edits do not churn it — a diff that fails CI only on *new*
   keys, SARIF 2.1.0 emission, and source-comment suppressions read by
   one scanner.  The analyses keep only their analysis. *)

type t = {
  rule : string;
  file : string;
  line : int;
  target : string;  (** stable identity within the file, line-free *)
  message : string;
  witness : string list;  (** rendered chain, root first; [] = none *)
  extra : (string * Json_out.t) list;  (** tool-specific JSON fields *)
  reason : string option;  (** suppression justification; [None] = active *)
}

let make ~rule ~file ~line message =
  { rule; file; line; target = message; message; witness = []; extra = []; reason = None }

let key f = f.rule ^ "|" ^ f.file ^ "|" ^ f.target

let is_active f = f.reason = None

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.target b.target
      | c -> c)
    | c -> c)
  | c -> c

let sort fs = List.sort compare_finding fs

let pp fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message;
  List.iter (fun w -> Format.fprintf fmt "@\n    %s" w) f.witness

(* ------------------------- source markers ------------------------- *)

(* Every suppression is a plain comment in the analyzed source, on the
   flagged line or the line above it — [(* lint: allow <rule> *)],
   [(* race-allow: reason *)], [(* alloc-allow: reason *)] — or a
   file-scoped marker anywhere in the file ([(* race-allow-file: reason
   *)], and [lint: allow missing-mli]).  This is the one scanner for all
   of them.  A blank in a marker matches any run of blanks, so
   [lint:allow] and [lint:  allow] still count; a marker ending in a word
   character must end on a word boundary, so [lint: allow float-eq] never
   suppresses a rule named [float-eq-x].  [race-allow:] never matches
   inside [race-allow-file:]: the colon position differs.  The file cache
   is per-process; drivers reset it per run. *)

let lint_marker rule = "lint: allow " ^ rule

let source_cache : (string, string array) Hashtbl.t = Hashtbl.create 16

let clear_source_cache () = Hashtbl.reset source_cache

let lines_of ~source_root file =
  let path = Filename.concat source_root file in
  match Hashtbl.find_opt source_cache path with
  | Some ls -> Some ls
  | None -> (
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      close_in ic;
      let ls = Array.of_list (List.rev !acc) in
      Hashtbl.replace source_cache path ls;
      Some ls)

let is_blank c = c = ' ' || c = '\t'

let is_word c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

(* end position of a match of [marker] starting at [i], if any *)
let match_at ~marker line i =
  let n = String.length line and m = String.length marker in
  let rec go i j =
    if j = m then Some i
    else if marker.[j] = ' ' then begin
      let i = ref i in
      while !i < n && is_blank line.[!i] do incr i done;
      go !i (j + 1)
    end
    else if i < n && line.[i] = marker.[j] then go (i + 1) (j + 1)
    else None
  in
  match go i 0 with
  | Some e when m > 0 && is_word marker.[m - 1] && e < n && is_word line.[e] ->
    None
  | r -> r

(* the marker's reason text: everything after the marker, trimmed at
   the closing comment delimiter *)
let reason_on_line ~marker line =
  let n = String.length line in
  let rec scan i =
    if i >= n then None
    else
      match match_at ~marker line i with
      | None -> scan (i + 1)
      | Some start ->
        let rest = String.sub line start (n - start) in
        let stop =
          let rec close k =
            if k + 1 >= String.length rest then String.length rest
            else if rest.[k] = '*' && rest.[k + 1] = ')' then k
            else close (k + 1)
          in
          close 0
        in
        Some (String.trim (String.sub rest 0 stop))
  in
  scan 0

let allow_in ~marker lines line =
  let check idx =
    if idx < 0 || idx >= Array.length lines then None
    else reason_on_line ~marker lines.(idx)
  in
  match check (line - 1) with Some r -> Some r | None -> check (line - 2)

let allow_file_in ~marker lines =
  let rec go idx =
    if idx >= Array.length lines then None
    else
      match reason_on_line ~marker lines.(idx) with
      | Some r -> Some (idx + 1, r)
      | None -> go (idx + 1)
  in
  go 0

let allow_at ~marker ~source_root file line =
  Option.bind (lines_of ~source_root file) (fun ls -> allow_in ~marker ls line)

let allow_file ~marker ~source_root file =
  Option.bind (lines_of ~source_root file) (allow_file_in ~marker)

(* ----------------------------- baseline --------------------------- *)

let baseline_json ~tool fs =
  Json_out.(
    Obj
      [
        ("tool", String tool);
        ("version", Int 1);
        ( "entries",
          List
            (List.filter_map
               (fun f ->
                 if is_active f then
                   Some
                     (Obj
                        [
                          ("rule", String f.rule);
                          ("file", String f.file);
                          ("target", String f.target);
                        ])
                 else None)
               (sort fs)) );
      ])

(* the tool a committed baseline belongs to and its keys; [Error] on
   parse trouble so CI fails loudly rather than treating everything as
   new *)
let load_baseline path =
  match Json_in.of_file path with
  | Error e -> Error e
  | Ok json -> (
    let field k j = Option.bind (Json_in.member k j) Json_in.to_string_opt in
    match
      (field "tool" json, Option.bind (Json_in.member "entries" json) Json_in.to_list)
    with
    | None, _ -> Error "baseline has no \"tool\" string"
    | _, None -> Error "baseline has no \"entries\" array"
    | Some tool, Some entries ->
      let keys = Hashtbl.create 32 in
      List.iter
        (fun entry ->
          match (field "rule" entry, field "file" entry, field "target" entry) with
          | Some rule, Some file, Some target ->
            Hashtbl.replace keys (rule ^ "|" ^ file ^ "|" ^ target) ()
          | _ -> ())
        entries;
      Ok (tool, keys))

let new_findings fs baseline_keys =
  List.filter (fun f -> is_active f && not (Hashtbl.mem baseline_keys (key f))) fs

let key_table fs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl (key f) ()) fs;
  tbl

(* ------------------------------ output ---------------------------- *)

let finding_json ~new_keys f =
  Json_out.(
    Obj
      ([
         ("rule", String f.rule);
         ("file", String f.file);
         ("line", Int f.line);
         ("target", String f.target);
         ("message", String f.message);
       ]
      @ f.extra
      @ [
          ("witness", List (List.map (fun w -> String w) f.witness));
          ("suppressed", Bool (not (is_active f)));
          ("reason", match f.reason with Some r -> String r | None -> Null);
          ("new", Bool (Hashtbl.mem new_keys (key f)));
        ]))

let findings_json ~new_keys fs =
  Json_out.List (List.map (finding_json ~new_keys) (sort fs))

let sarif ~tool ~rules ~new_keys fs =
  Json_out.(
    let results =
      List.filter_map
        (fun f ->
          if is_active f then
            Some
              (Obj
                 [
                   ("ruleId", String f.rule);
                   ( "level",
                     String
                       (if Hashtbl.mem new_keys (key f) then "error" else "warning")
                   );
                   ( "message",
                     Obj
                       [
                         ( "text",
                           String
                             (if f.witness = [] then f.message
                              else
                                Printf.sprintf "%s; witness: %s" f.message
                                  (String.concat " ; " f.witness)) );
                       ] );
                   ( "locations",
                     List
                       [
                         Obj
                           [
                             ( "physicalLocation",
                               Obj
                                 [
                                   ( "artifactLocation",
                                     Obj [ ("uri", String f.file) ] );
                                   ( "region",
                                     Obj [ ("startLine", Int f.line) ] );
                                 ] );
                           ];
                       ] );
                 ])
          else None)
        (sort fs)
    in
    Obj
      [
        ("version", String "2.1.0");
        ("$schema", String "https://json.schemastore.org/sarif-2.1.0.json");
        ( "runs",
          List
            [
              Obj
                [
                  ( "tool",
                    Obj
                      [
                        ( "driver",
                          Obj
                            [
                              ("name", String tool);
                              ("version", String "1.0.0");
                              ( "rules",
                                List
                                  (List.map
                                     (fun (id, desc) ->
                                       Obj
                                         [
                                           ("id", String id);
                                           ( "shortDescription",
                                             Obj [ ("text", String desc) ] );
                                         ])
                                     rules) );
                            ] );
                      ] );
                  ("results", List results);
                ];
            ] );
      ])
