let bits_per_coeff q =
  if q < 2 then invalid_arg "Codec.bits_per_coeff: field order must be >= 2";
  let rec go bits cap = if cap >= q then bits else go (bits + 1) (cap * 2) in
  go 1 2

let byte_length ~q ~n = ((n * bits_per_coeff q) + 7) / 8

let pack ~q coeffs =
  let bits = bits_per_coeff q in
  let n = Array.length coeffs in
  let out = Bytes.make (byte_length ~q ~n) '\000' in
  let bitpos = ref 0 in
  Array.iter
    (fun c ->
      if c < 0 || c >= q then
        invalid_arg (Printf.sprintf "Codec.pack: coefficient %d out of [0,%d)" c q);
      for b = 0 to bits - 1 do
        if (c lsr b) land 1 = 1 then begin
          let pos = !bitpos + b in
          let byte = Bytes.get_uint8 out (pos lsr 3) in
          Bytes.set_uint8 out (pos lsr 3) (byte lor (1 lsl (pos land 7)))
        end
      done;
      bitpos := !bitpos + bits)
    coeffs;
  out

let unpack ~q ~n buf =
  let bits = bits_per_coeff q in
  let needed = byte_length ~q ~n in
  if Bytes.length buf < needed then
    invalid_arg
      (Printf.sprintf "Codec.unpack: need %d bytes, got %d" needed
         (Bytes.length buf));
  let coeffs = Array.make n 0 in
  let bitpos = ref 0 in
  for i = 0 to n - 1 do
    let c = ref 0 in
    for b = 0 to bits - 1 do
      let pos = !bitpos + b in
      let byte = Bytes.get_uint8 buf (pos lsr 3) in
      if (byte lsr (pos land 7)) land 1 = 1 then c := !c lor (1 lsl b)
    done;
    if !c >= q then
      invalid_arg (Printf.sprintf "Codec.unpack: decoded coefficient %d >= %d" !c q);
    coeffs.(i) <- !c;
    bitpos := !bitpos + bits
  done;
  coeffs

let pack_cyclic (r : Ring.t) v = pack ~q:r.Ring.order (Cyclic.to_int_array v)

let unpack_cyclic (r : Ring.t) buf =
  Cyclic.of_int_array r (unpack ~q:r.Ring.order ~n:r.Ring.n buf)

let pack_evals (r : Ring.t) v = pack ~q:r.Ring.order (Evals.view v)

let unpack_evals (r : Ring.t) buf =
  Evals.of_canonical r (unpack ~q:r.Ring.order ~n:r.Ring.n buf)
