let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let split line =
  let n = String.length line in
  let fields = ref [] in
  let start = ref (-1) in
  for i = n - 1 downto 0 do
    if is_blank line.[i] then begin
      if !start >= 0 then begin
        fields := String.sub line (i + 1) (!start - i) :: !fields;
        start := -1
      end
    end
    else begin
      if !start < 0 then start := i;
      if i = 0 then fields := String.sub line 0 (!start + 1) :: !fields
    end
  done;
  !fields
