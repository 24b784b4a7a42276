package padsrt

// Network-flavored base types: Pip (dotted-quad IPv4 addresses), Phostname,
// and Pzip (US postal codes), all of which appear in the CLF and Sirius
// descriptions of Figures 4 and 5.

// ReadIP reads a dotted-quad IPv4 address, returning it in host order as a
// uint32. Each octet must be in 0..255 and the address must not be followed
// by a further digit or dot (so "1.2.3.4.5" does not half-match).
func ReadIP(s *Source) (uint32, ErrCode) {
	w := s.Window(64)
	if len(w) == 0 {
		return 0, eofCode(s)
	}
	var v uint32
	i := 0
	for part := 0; part < 4; part++ {
		if part > 0 {
			if i >= len(w) || w[i] != '.' {
				return 0, ErrInvalidIP
			}
			i++
		}
		if i >= len(w) || !isDigit(w[i]) {
			return 0, ErrInvalidIP
		}
		oct := 0
		digits := 0
		for i < len(w) && isDigit(w[i]) && digits < 3 {
			oct = oct*10 + int(w[i]-'0')
			i++
			digits++
		}
		if oct > 255 {
			return 0, ErrInvalidIP
		}
		v = v<<8 | uint32(oct)
	}
	if i < len(w) && (isDigit(w[i]) || w[i] == '.') {
		return 0, ErrInvalidIP
	}
	s.Skip(i)
	return v, ErrNone
}

// FormatIP renders a host-order IPv4 address as a dotted quad.
func FormatIP(v uint32) string { return string(AppendIP(make([]byte, 0, 15), v)) }

// AppendIP appends the dotted quad of a host-order IPv4 address to dst.
func AppendIP(dst []byte, v uint32) []byte {
	dst = AppendUint(dst, uint64(v>>24))
	dst = append(dst, '.')
	dst = AppendUint(dst, uint64(v>>16&0xFF))
	dst = append(dst, '.')
	dst = AppendUint(dst, uint64(v>>8&0xFF))
	dst = append(dst, '.')
	return AppendUint(dst, uint64(v&0xFF))
}

func isHostByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || isDigit(b) || b == '-'
}

// ReadHostname reads a dotted hostname: labels of letters, digits, and
// hyphens, each starting with a letter or digit, separated by dots. At least
// one label must contain a letter, so a bare IP does not parse as a
// hostname (the branch ordering in Figure 4's client_t then disambiguates).
func ReadHostname(s *Source) (string, ErrCode) {
	w := s.Window(512)
	i := 0
	sawAlpha := false
	for {
		if i >= len(w) || !isHostByte(w[i]) || w[i] == '-' {
			return "", ErrInvalidHostname
		}
		for i < len(w) && isHostByte(w[i]) {
			if !isDigit(w[i]) && w[i] != '-' {
				sawAlpha = true
			}
			i++
		}
		if i < len(w) && w[i] == '.' && i+1 < len(w) && isHostByte(w[i+1]) {
			i++
			continue
		}
		break
	}
	if !sawAlpha {
		return "", ErrInvalidHostname
	}
	out := s.internString(w[:i])
	s.Skip(i)
	return out, ErrNone
}

// ReadZip reads a US zip code: exactly five digits, optionally followed by
// "-dddd". The textual form is preserved (leading zeros are significant —
// Sirius zip 07988 in Figure 3).
func ReadZip(s *Source) (string, ErrCode) {
	w := s.Window(16)
	if len(w) < 5 {
		return "", ErrInvalidZip
	}
	for i := 0; i < 5; i++ {
		if !isDigit(w[i]) {
			return "", ErrInvalidZip
		}
	}
	n := 5
	if len(w) >= 10 && w[5] == '-' && isDigit(w[6]) && isDigit(w[7]) && isDigit(w[8]) && isDigit(w[9]) {
		n = 10
	}
	if len(w) > n && isDigit(w[n]) {
		return "", ErrInvalidZip
	}
	out := s.internString(w[:n])
	s.Skip(n)
	return out, ErrNone
}

// ReadPhone reads a North American phone number as a bare digit string of
// 10 digits (or 0, Sirius's "no data" convention handled by constraints),
// returning its numeric value. pn_t in Figure 5.
func ReadPhone(s *Source) (uint64, ErrCode) {
	return ReadAUint(s, 64)
}
