(* The benchmark's reference job: fixed work that calls nothing of the
   program, timed alongside a run so that the run's times can be put at
   a nominal host speed (see ../README.md, "Host speed").

     pb_ref.exe            then, on standard input, one line per sample:
     N                     run the job N times; answers the seconds taken

   The job mixes what the program spends its time on: exact integer
   elimination with gcds (simplex, rat), an LRU cache over a hash table
   (cachesim), and short-lived allocation with sorting (the engine). *)

let gcd a b =
  let rec go a b = if b = 0 then abs a else go b (a mod b) in
  go a b

(* Fraction-free Gauss-Jordan on a fixed 7x9 matrix, rows kept primitive. *)
let eliminate seed =
  let rows = 7 and cols = 9 in
  let m = Array.init rows (fun i -> Array.init cols (fun j -> ((i * 31 + j * 17 + seed) mod 23) - 11)) in
  for c = 0 to rows - 1 do
    let p = ref c in
    while !p < rows && m.(!p).(c) = 0 do incr p done;
    if !p < rows then begin
      let t = m.(c) in
      m.(c) <- m.(!p);
      m.(!p) <- t;
      let piv = m.(c) in
      for r = 0 to rows - 1 do
        if r <> c && m.(r).(c) <> 0 then begin
          let a = piv.(c) and b = m.(r).(c) in
          let row = Array.init cols (fun j -> (a * m.(r).(j)) - (b * piv.(j))) in
          let g = Array.fold_left gcd 0 row in
          m.(r) <- (if g > 1 then Array.map (fun x -> x / g) row else row)
        end
      done
    end
  done;
  Array.fold_left (fun acc row -> acc + Array.fold_left ( + ) 0 row) 0 m

(* LRU cache of [cap] lines over a strided, wrapping access stream. *)
let lru cap n =
  let prev = Array.make (cap + 1) 0 and next = Array.make (cap + 1) 0 in
  let key = Array.make (cap + 1) (-1) in
  let where = Hashtbl.create (2 * cap) in
  (* slot 0 is the list head; slots 1..cap hold lines, most recent first *)
  for s = 0 to cap do
    next.(s) <- (s + 1) mod (cap + 1);
    prev.(s) <- (s + cap) mod (cap + 1)
  done;
  let unlink s =
    next.(prev.(s)) <- next.(s);
    prev.(next.(s)) <- prev.(s)
  in
  let push_front s =
    next.(s) <- next.(0);
    prev.(s) <- 0;
    prev.(next.(0)) <- s;
    next.(0) <- s
  in
  let misses = ref 0 in
  for t = 0 to n - 1 do
    let a = ((t * 7) + (t / 64 * 131)) mod (3 * cap) in
    match Hashtbl.find_opt where a with
    | Some s ->
        unlink s;
        push_front s
    | None ->
        incr misses;
        let s = prev.(0) in
        if key.(s) >= 0 then Hashtbl.remove where key.(s);
        key.(s) <- a;
        Hashtbl.replace where a s;
        unlink s;
        push_front s
  done;
  !misses

let sorting seed =
  let l = List.init 2000 (fun i -> ((i * 7919) + seed) mod 1009, float_of_int i) in
  List.length (List.sort_uniq compare l)

let job () =
  let acc = ref 0 in
  for s = 0 to 39 do
    acc := !acc + eliminate s
  done;
  acc := !acc + lru 512 20_000;
  acc := !acc + sorting 3;
  !acc

let () =
  let expected = job () in
  try
    while true do
      let n = int_of_string (String.trim (input_line stdin)) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        if job () <> expected then failwith "reference job: result changed"
      done;
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()
