(* Workload definitions and the seeded op-stream generator.

   A workload fixes a world shape (sites, pack sites, replication), a
   working set built at set-up time, and an op mix. [generate] turns a
   seed into a flat op stream before any timing starts: op kinds, the
   issuing site, the target path (an index into [targets]) and, for
   writes, the revision stamped into the body. Create-versus-unlink is
   decided against the generator's own liveness model, so every dirop is
   expected to succeed. *)

type kind = Read | Write | Create | Unlink | Lookup

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Create -> "create"
  | Unlink -> "unlink"
  | Lookup -> "lookup"

(* The four latency classes the end-to-end metrics report, indexing
   [cls_names]. *)
let cls = function Read -> 0 | Write -> 1 | Create | Unlink -> 2 | Lookup -> 3

let cls_names = [| "read"; "write"; "dirop"; "lookup" |]

type spec = {
  name : string;
  n_sites : int;
  pack_sites : int list;
  ncopies : int;
  users : int;        (* sessions; an op runs at its user's home site *)
  churn_pct : int;    (* % chance per op that the acting user re-homes *)
  dirs : string list; (* created in order at set-up *)
  files : string array;   (* data files, written at set-up *)
  file_size : int;        (* bytes per data file and per write *)
  names : string array;   (* name-space entries, live or not *)
  preloaded : int -> bool;(* names created (empty) at set-up *)
  mix : int * int * int;  (* % read, % write, % dirop; the rest look up *)
  pick_file : Prng.t -> int;          (* a data file, for read/write *)
  pick_name : Prng.t -> site:int -> int; (* a name, for dirops and lookups at [site] *)
  pick_live : Prng.t -> bool array -> int option;
      (* a live name: the read/write target when there are no data files *)
  rate : int;   (* nominal ops per host second: sets the stream length *)
  warmup : int; (* untimed prefix, run during set-up *)
}

(* Paths every op can address: data files first, then names. *)
let targets spec = Array.append spec.files spec.names

let n_targets spec = Array.length spec.files + Array.length spec.names

(* ---- the three workloads ---- *)

let flood_dirs = 16

let flood =
  let n_files = 2_048 and churn_per_dir = 16 in
  let file_zipf = Prng.zipf ~n:n_files ~s:1.1 in
  let dir_zipf = Prng.zipf ~n:flood_dirs ~s:1.1 in
  {
    name = "flood";
    n_sites = 64;
    pack_sites = [ 0; 1; 2; 3 ];
    ncopies = 2;
    users = 100_000;
    churn_pct = 1;
    dirs = "/flood" :: List.init flood_dirs (Printf.sprintf "/flood/d%d");
    (* rank r lives in directory r mod 16, as in E24 *)
    files =
      Array.init n_files (fun r -> Printf.sprintf "/flood/d%d/f%d" (r mod flood_dirs) r);
    file_size = 200;
    names =
      Array.init (flood_dirs * churn_per_dir) (fun i ->
          Printf.sprintf "/flood/d%d/t%d" (i / churn_per_dir) (i mod churn_per_dir));
    preloaded = (fun _ -> false);
    mix = (80, 10, 5);
    pick_file = (fun rng -> Prng.sample file_zipf rng);
    pick_name =
      (fun rng ~site:_ ->
        (Prng.sample dir_zipf rng * churn_per_dir) + Prng.int rng churn_per_dir);
    pick_live = (fun _ _ -> None);
    rate = 10_000;
    warmup = 2_000;
  }

let ns_dirs = 32

let ns_per_dir = 512 (* twice the preloaded 256, so half the lookups miss *)

let namespace =
  let dir_zipf = Prng.zipf ~n:ns_dirs ~s:1.1 in
  let dir_path j = Printf.sprintf "/ns/a%d/b/d%d" (j / 8) j in
  let pick_dir_name rng = (Prng.sample dir_zipf rng * ns_per_dir) + Prng.int rng ns_per_dir in
  {
    name = "namespace";
    n_sites = 8;
    pack_sites = [ 0; 1; 2 ];
    ncopies = 2;
    users = 1_000;
    churn_pct = 1;
    dirs =
      [ "/ns" ]
      @ List.init (ns_dirs / 8) (Printf.sprintf "/ns/a%d")
      @ List.init (ns_dirs / 8) (Printf.sprintf "/ns/a%d/b")
      @ List.init ns_dirs dir_path;
    files = [||];
    file_size = 64;
    names =
      Array.init (ns_dirs * ns_per_dir) (fun i ->
          Printf.sprintf "%s/e%d" (dir_path (i / ns_per_dir)) (i mod ns_per_dir));
    preloaded = (fun i -> i mod ns_per_dir < ns_per_dir / 2);
    mix = (12, 12, 46);
    pick_file = (fun _ -> invalid_arg "namespace has no data files");
    pick_name = (fun rng ~site:_ -> pick_dir_name rng);
    pick_live =
      (fun rng live ->
        (* a live name in a Zipf-chosen directory; the dirop churn keeps
           about half of each directory live *)
        let rec go tries =
          if tries = 0 then None
          else
            let i = pick_dir_name rng in
            if live.(i) then Some i else go (tries - 1)
        in
        go 64);
    rate = 1_700;
    warmup = 500;
  }

let stream =
  let n_files = 96 and n_sites = 8 and per_site = 2 in
  {
    name = "stream";
    n_sites;
    pack_sites = [ 0; 1; 2 ];
    ncopies = 2;
    users = 1_000;
    churn_pct = 1;
    dirs = [ "/stream"; "/stream/tmp" ];
    files = Array.init n_files (Printf.sprintf "/stream/f%d");
    file_size = 65_536;
    (* Scratch names are private to a site, as temporary files are: names
       2s and 2s + 1 are created, unlinked and looked up only at site s.
       Half of them sit beside the files, so their churn also changes the
       directory every file path and /stream/tmp run through. *)
    names =
      Array.init (n_sites * per_site) (fun i ->
          if i mod 2 = 0 then Printf.sprintf "/stream/t%d" i
          else Printf.sprintf "/stream/tmp/t%d" i);
    preloaded = (fun _ -> false);
    mix = (60, 24, 8);
    pick_file = (fun rng -> Prng.int rng n_files);
    pick_name = (fun rng ~site -> (site * per_site) + Prng.int rng per_site);
    pick_live = (fun _ _ -> None);
    rate = 1_300;
    warmup = 200;
  }

let all = [ flood; namespace; stream ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* ---- op streams ---- *)

type stream = {
  spec : spec;
  warm : int;            (* ops [0, warm) are the untimed warm-up prefix *)
  kind : kind array;
  site : int array;
  target : int array;    (* index into [targets spec] *)
  rev : int array;       (* write stamp; 0 for other ops *)
}

let length s = Array.length s.kind

(* A stream of the warm-up prefix followed by [ops] timed ops. *)
let generate spec ~seed ~ops =
  let rng = Prng.create (Int64.of_int seed) in
  let n = spec.warmup + ops in
  let n_files = Array.length spec.files in
  let home = Array.init spec.users (fun u -> u mod spec.n_sites) in
  let live = Array.init (Array.length spec.names) spec.preloaded in
  let kind = Array.make n Read and site = Array.make n 0 in
  let target = Array.make n 0 and rev = Array.make n 0 in
  let r_pct, w_pct, d_pct = spec.mix in
  let dirop i name =
    kind.(i) <- (if live.(name) then Unlink else Create);
    live.(name) <- not live.(name);
    target.(i) <- n_files + name
  in
  let data_target () =
    if n_files > 0 then Some (spec.pick_file rng)
    else Option.map (fun name -> n_files + name) (spec.pick_live rng live)
  in
  for i = 0 to n - 1 do
    let u = Prng.int rng spec.users in
    if Prng.int rng 100 < spec.churn_pct then home.(u) <- Prng.int rng spec.n_sites;
    site.(i) <- home.(u);
    let roll = Prng.int rng 100 in
    if roll < r_pct + w_pct then begin
      let write = roll >= r_pct in
      match data_target () with
      | Some t ->
        kind.(i) <- (if write then Write else Read);
        target.(i) <- t;
        if write then rev.(i) <- i + 1
      | None -> dirop i (spec.pick_name rng ~site:site.(i))
    end
    else if roll < r_pct + w_pct + d_pct then dirop i (spec.pick_name rng ~site:site.(i))
    else begin
      kind.(i) <- Lookup;
      (* half the lookups name a read/write target, which is live; half
         draw from the name pool, where the dirop churn keeps about half
         the names absent. With exactly half the lookups missing, the
         median would sit on the cliff between hit and miss latency. *)
      target.(i) <-
        (match if Prng.int rng 2 = 0 then data_target () else None with
        | Some t -> t
        | None -> n_files + spec.pick_name rng ~site:site.(i))
    end
  done;
  { spec; warm = min spec.warmup n; kind; site; target; rev }

(* A digest of everything the program receives, for the determinism test. *)
let digest s =
  let b = Buffer.create (length s * 16) in
  Buffer.add_string b (Printf.sprintf "%s warm %d;" s.spec.name s.warm);
  for i = 0 to length s - 1 do
    Buffer.add_string b (kind_name s.kind.(i));
    Buffer.add_string b (string_of_int s.site.(i));
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int s.target.(i));
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int s.rev.(i));
    Buffer.add_char b ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Write bodies are built at op time from the stamp, so a 64 KiB stream
   need not hold every body in memory. Distinct stamps give distinct
   bodies, which is what lets the oracle see a superseded version. *)
let body spec stamp =
  let b = Bytes.make spec.file_size (Char.chr (97 + (stamp mod 26))) in
  let tag = Printf.sprintf "#%d#" stamp in
  Bytes.blit_string tag 0 b 0 (min (String.length tag) spec.file_size);
  Bytes.unsafe_to_string b

(* Initial contents of data file [i]; negative stamps never collide with
   write revisions. *)
let initial_body spec i = body spec (-(i + 1))
