package padsrt

// Integer base types: ASCII (Pa_*), binary (Pb_*), EBCDIC-character (Pe_*),
// fixed-width variants (*_FW), and the coding-generic Pint/Puint family that
// follows the ambient coding. Every reader consumes input only on success
// (or consumes exactly the fixed width for *_FW types) and returns an
// ErrCode instead of an error value so parse descriptors can be filled in
// without allocation.

import "strconv"

// eofCode picks the boundary error appropriate to the cursor: end of record
// inside a bounded record, end of input otherwise.
func eofCode(s *Source) ErrCode {
	if s.InRecord() {
		return ErrAtEOR
	}
	return ErrAtEOF
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// uintMax returns the maximum value of an unsigned integer of the given bit
// width (8, 16, 32, or 64).
func uintMax(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

// intMax bounds signed widths.
func intMax(bits int) int64 {
	if bits >= 64 {
		return 1<<63 - 1
	}
	return 1<<uint(bits-1) - 1
}

// ReadAUint reads an ASCII unsigned decimal integer that must fit in the
// given bit width (Pa_uint8/16/32/64).
func ReadAUint(s *Source, bits int) (uint64, ErrCode) {
	w := s.Window(32)
	if len(w) == 0 {
		return 0, eofCode(s)
	}
	i := 0
	var v uint64
	// 19 decimal digits always fit in a uint64, so the common path skips the
	// per-digit overflow arithmetic; only digit 20+ takes the guarded loop.
	lim := len(w)
	if lim > 19 {
		lim = 19
	}
	for i < lim {
		d := uint64(w[i]) - '0'
		if d > 9 {
			break
		}
		v = v*10 + d
		i++
	}
	overflow := false
	const cutoff = (1<<64 - 1) / 10 // pre-multiply bound
	for i < len(w) && isDigit(w[i]) {
		d := uint64(w[i] - '0')
		if v > cutoff || v*10 > 1<<64-1-d {
			overflow = true
		} else {
			v = v*10 + d
		}
		i++
	}
	if i == 0 {
		return 0, ErrInvalidInt
	}
	s.Skip(i)
	if overflow || v > uintMax(bits) {
		return v, ErrRange
	}
	return v, ErrNone
}

// ReadAInt reads an ASCII signed decimal integer (optional leading '-' or
// '+') fitting the given bit width (Pa_int8/16/32/64).
func ReadAInt(s *Source, bits int) (int64, ErrCode) {
	w := s.Window(32)
	if len(w) == 0 {
		return 0, eofCode(s)
	}
	i := 0
	neg := false
	if w[i] == '-' || w[i] == '+' {
		neg = w[i] == '-'
		i++
	}
	start := i
	var v uint64
	dlim := len(w)
	if dlim > start+19 {
		dlim = start + 19
	}
	for i < dlim {
		d := uint64(w[i]) - '0'
		if d > 9 {
			break
		}
		v = v*10 + d
		i++
	}
	overflow := false
	for i < len(w) && isDigit(w[i]) {
		d := uint64(w[i] - '0')
		if v > (^uint64(0)-d)/10 {
			overflow = true
		} else {
			v = v*10 + d
		}
		i++
	}
	if i == start {
		return 0, ErrInvalidInt
	}
	s.Skip(i)
	lim := uint64(intMax(bits))
	if neg {
		lim++
	}
	if overflow || v > lim {
		return int64(v), ErrRange
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, ErrNone
}

// ReadAUintFW reads an unsigned ASCII integer stored in exactly width bytes
// (Puint16_FW(:3:) in Figure 4). Leading spaces or zeros are accepted.
func ReadAUintFW(s *Source, width, bits int) (uint64, ErrCode) {
	if width <= 0 {
		return 0, ErrBadParam
	}
	if s.Avail(width) < width {
		return 0, eofCode(s)
	}
	w := s.Peek(width)
	i := 0
	for i < width && w[i] == ' ' {
		i++
	}
	if i == width {
		s.Skip(width)
		return 0, ErrInvalidInt
	}
	var v uint64
	overflow := false
	for ; i < width; i++ {
		if !isDigit(w[i]) {
			s.Skip(width)
			return 0, ErrInvalidInt
		}
		d := uint64(w[i] - '0')
		if v > (^uint64(0)-d)/10 {
			overflow = true
		} else {
			v = v*10 + d
		}
	}
	s.Skip(width)
	if overflow || v > uintMax(bits) {
		return v, ErrRange
	}
	return v, ErrNone
}

// ReadAIntFW reads a signed ASCII integer stored in exactly width bytes,
// with optional leading spaces and sign.
func ReadAIntFW(s *Source, width, bits int) (int64, ErrCode) {
	if width <= 0 {
		return 0, ErrBadParam
	}
	if s.Avail(width) < width {
		return 0, eofCode(s)
	}
	w := s.Peek(width)
	i := 0
	for i < width && w[i] == ' ' {
		i++
	}
	neg := false
	if i < width && (w[i] == '-' || w[i] == '+') {
		neg = w[i] == '-'
		i++
	}
	if i == width {
		s.Skip(width)
		return 0, ErrInvalidInt
	}
	var v uint64
	for ; i < width; i++ {
		if !isDigit(w[i]) {
			s.Skip(width)
			return 0, ErrInvalidInt
		}
		v = v*10 + uint64(w[i]-'0')
	}
	s.Skip(width)
	lim := uint64(intMax(bits))
	if neg {
		lim++
	}
	if v > lim {
		return int64(v), ErrRange
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, ErrNone
}

// ReadBUint reads a binary unsigned integer of nbytes bytes in the source's
// byte order (Pb_uint8/16/32/64).
func ReadBUint(s *Source, nbytes int) (uint64, ErrCode) {
	if nbytes <= 0 || nbytes > 8 {
		return 0, ErrBadParam
	}
	if s.Avail(nbytes) < nbytes {
		return 0, eofCode(s)
	}
	w := s.Peek(nbytes)
	var v uint64
	if s.order == BigEndian {
		for _, b := range w {
			v = v<<8 | uint64(b)
		}
	} else {
		for i := nbytes - 1; i >= 0; i-- {
			v = v<<8 | uint64(w[i])
		}
	}
	s.Skip(nbytes)
	return v, ErrNone
}

// ReadBInt reads a binary two's-complement signed integer of nbytes bytes.
func ReadBInt(s *Source, nbytes int) (int64, ErrCode) {
	v, code := ReadBUint(s, nbytes)
	if code != ErrNone {
		return 0, code
	}
	// Sign-extend from nbytes*8 bits.
	shift := uint(64 - nbytes*8)
	return int64(v<<shift) >> shift, ErrNone
}

// ReadEUint reads an unsigned decimal written in EBCDIC characters
// (Pe_uint*): the EBCDIC analogue of ReadAUint.
func ReadEUint(s *Source, bits int) (uint64, ErrCode) {
	w := s.Window(32)
	if len(w) == 0 {
		return 0, eofCode(s)
	}
	i := 0
	var v uint64
	overflow := false
	for i < len(w) && w[i] >= 0xF0 && w[i] <= 0xF9 {
		d := uint64(w[i] - 0xF0)
		if v > (^uint64(0)-d)/10 {
			overflow = true
		} else {
			v = v*10 + d
		}
		i++
	}
	if i == 0 {
		return 0, ErrInvalidInt
	}
	s.Skip(i)
	if overflow || v > uintMax(bits) {
		return v, ErrRange
	}
	return v, ErrNone
}

// ReadEInt reads a signed decimal in EBCDIC characters (Pe_int*).
func ReadEInt(s *Source, bits int) (int64, ErrCode) {
	w := s.Window(32)
	if len(w) == 0 {
		return 0, eofCode(s)
	}
	i := 0
	neg := false
	if a := EBCDICToASCII(w[i]); a == '-' || a == '+' {
		neg = a == '-'
		i++
	}
	start := i
	var v uint64
	for i < len(w) && w[i] >= 0xF0 && w[i] <= 0xF9 {
		v = v*10 + uint64(w[i]-0xF0)
		i++
	}
	if i == start {
		return 0, ErrInvalidInt
	}
	s.Skip(i)
	lim := uint64(intMax(bits))
	if neg {
		lim++
	}
	if v > lim {
		return int64(v), ErrRange
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, ErrNone
}

// ReadUint reads an unsigned integer in the ambient coding (Puint8/16/32/64).
func ReadUint(s *Source, bits int) (uint64, ErrCode) {
	if s.coding == EBCDIC {
		return ReadEUint(s, bits)
	}
	return ReadAUint(s, bits)
}

// ReadInt reads a signed integer in the ambient coding (Pint8/16/32/64).
func ReadInt(s *Source, bits int) (int64, ErrCode) {
	if s.coding == EBCDIC {
		return ReadEInt(s, bits)
	}
	return ReadAInt(s, bits)
}

// ReadUintFW reads a fixed-width unsigned integer in the ambient coding.
func ReadUintFW(s *Source, width, bits int) (uint64, ErrCode) {
	if s.coding == EBCDIC {
		if s.Avail(width) < width {
			return 0, eofCode(s)
		}
		raw := s.Peek(width)
		ascii := make([]byte, width)
		for i, b := range raw {
			ascii[i] = EBCDICToASCII(b)
		}
		v, code := parseFWUnsigned(ascii, bits)
		s.Skip(width)
		return v, code
	}
	return ReadAUintFW(s, width, bits)
}

func parseFWUnsigned(w []byte, bits int) (uint64, ErrCode) {
	i := 0
	for i < len(w) && w[i] == ' ' {
		i++
	}
	if i == len(w) {
		return 0, ErrInvalidInt
	}
	var v uint64
	for ; i < len(w); i++ {
		if !isDigit(w[i]) {
			return 0, ErrInvalidInt
		}
		v = v*10 + uint64(w[i]-'0')
	}
	if v > uintMax(bits) {
		return v, ErrRange
	}
	return v, ErrNone
}

// AppendUint appends the shortest ASCII decimal form of v.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendInt appends the shortest ASCII decimal form of v.
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendUintFW appends v right-aligned in exactly width bytes, zero-padded.
func AppendUintFW(dst []byte, v uint64, width int) []byte {
	tmp := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp...)
}

// AppendIntFW appends v in exactly width bytes: zero-padded, with a leading
// '-' consuming one position for negative values.
func AppendIntFW(dst []byte, v int64, width int) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return AppendUintFW(dst, uint64(-v), width-1)
	}
	return AppendUintFW(dst, uint64(v), width)
}

// AppendDate appends a date in its original text when known, else as epoch
// seconds.
func AppendDate(dst []byte, d DateVal) []byte {
	if d.Raw != "" {
		return append(dst, d.Raw...)
	}
	return AppendInt(dst, d.Sec)
}

// AppendBUint appends the binary encoding of v in nbytes bytes with the
// given order.
func AppendBUint(dst []byte, v uint64, nbytes int, order ByteOrder) []byte {
	tmp := make([]byte, nbytes)
	if order == BigEndian {
		for i := nbytes - 1; i >= 0; i-- {
			tmp[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := 0; i < nbytes; i++ {
			tmp[i] = byte(v)
			v >>= 8
		}
	}
	return append(dst, tmp...)
}

// AppendEUint appends the EBCDIC-character decimal form of v.
func AppendEUint(dst []byte, v uint64) []byte {
	start := len(dst)
	dst = AppendUint(dst, v)
	for i := start; i < len(dst); i++ {
		dst[i] = ASCIIToEBCDIC(dst[i])
	}
	return dst
}
