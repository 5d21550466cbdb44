(* L12 — hot-path allocation from the parse tree (DESIGN.md §12). *)

let alloc_prims =
  [
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Bytes"; "create" ];
  ]

let alloc_prim lid =
  (* Accept both bare and [Stdlib.]-qualified spellings. *)
  List.find_map
    (fun prim ->
      let l = List.length prim in
      let n = List.length lid in
      if n >= l && List.filteri (fun i _ -> i >= n - l) lid = prim then
        Some (String.concat "." prim)
      else None)
    alloc_prims

let findings (impl : Ast.impl) =
  let hot = Hashtbl.create 4 in
  Array.iter
    (fun line ->
      List.iter (fun nm -> Hashtbl.replace hot nm ()) (Rule.hot_names line))
    (Ast.raw_lines impl.src);
  if Hashtbl.length hot = 0 then []
  else begin
    let found = ref [] in
    Ast.iter_bindings
      (fun ~name ~line:_ expr ->
        if Hashtbl.mem hot name then
          Ast.iter_expressions
            (fun e ->
              match e.Parsetree.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                match alloc_prim (Ast.flatten txt) with
                | None -> ()
                | Some prim ->
                  (* A hot binding nested in another is walked twice; the
                     driver keeps one finding per line. *)
                  found :=
                    {
                      Lint.file = impl.file;
                      line = Ast.line_of_loc e.pexp_loc;
                      rule = Rule.L12;
                      message =
                        Printf.sprintf
                          "'%s' in hot function '%s': the round hot path \
                           reuses preallocated buffers (see Runtime.Arena)"
                          prim name;
                    }
                    :: !found)
              | _ -> ())
            expr)
      impl.structure;
    !found
  end
